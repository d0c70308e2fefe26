#pragma once
// Convenience factory for the evaluation circuits.

#include <memory>
#include <string>

#include "circuits/bandgap.hpp"
#include "circuits/opamp.hpp"

namespace kato::ckt {

/// Build a sizing circuit.
///
/// kind:
///   "opamp2" | "opamp3" | "bandgap" | "stage2"   — the hand-written
///       benchmark topologies;
///   "netlist:<path.cir>"                         — any SPICE-subset deck,
///       elaborated through the netlist front-end.  A relative path is
///       tried as-is, then against the KATO_NETLIST_DIR environment
///       variable.  The shipped decks live in circuits/netlists/ (e.g.
///       the transient step buffer, buffer_tran.cir).
/// node: "180nm" | "40nm".
///
/// Unknown kinds/nodes throw std::invalid_argument listing what is
/// registered; bad decks throw net::NetlistError with file/line.
std::unique_ptr<SizingCircuit> make_circuit(const std::string& kind,
                                            const std::string& node);

}  // namespace kato::ckt
