#include "circuits/factory.hpp"

#include <fstream>
#include <stdexcept>

#include "netlist/netlist_circuit.hpp"
#include "util/env.hpp"

namespace kato::ckt {

namespace {

/// Resolve a "netlist:" deck path: as given, then under KATO_NETLIST_DIR.
std::string resolve_deck_path(const std::string& path) {
  if (std::ifstream(path).good()) return path;
  if (const char* dir = util::env_get(util::Env::netlist_dir)) {
    const std::string joined = std::string(dir) + "/" + path;
    if (std::ifstream(joined).good()) return joined;
    throw std::invalid_argument("make_circuit: netlist deck '" + path +
                                "' not found (also tried '" + joined + "')");
  }
  throw std::invalid_argument(
      "make_circuit: netlist deck '" + path +
      "' not found (set KATO_NETLIST_DIR to add a search root)");
}

}  // namespace

std::unique_ptr<SizingCircuit> make_circuit(const std::string& kind,
                                            const std::string& node) {
  const Pdk& pdk = pdk_by_name(node);
  if (kind == "opamp2") return std::make_unique<TwoStageOpAmp>(pdk);
  if (kind == "opamp3") return std::make_unique<ThreeStageOpAmp>(pdk);
  if (kind == "bandgap") return std::make_unique<BandgapReference>(pdk);
  if (kind == "stage2") return std::make_unique<SecondStageAmp>(pdk);
  if (kind.rfind("netlist:", 0) == 0)
    return NetlistCircuit::from_file(resolve_deck_path(kind.substr(8)), pdk);
  throw std::invalid_argument(
      "make_circuit: unknown kind '" + kind +
      "'; registered kinds: opamp2, opamp3, bandgap, stage2, "
      "netlist:<deck.cir>");
}

}  // namespace kato::ckt
