#pragma once
// Elaboration: flatten a parsed Deck into a sim::Circuit.
//
// Hierarchy is expanded depth-first: `X` instances map their connection
// nodes onto the subckt ports and prefix internal nodes with the instance
// path ("x1.mid"), so flat node names stay unique and diagnosable.  Node
// indices are assigned in order of first appearance, which makes the MNA
// system — and therefore the simulated metrics — a deterministic function
// of card order alone.
//
// Elaboration is cheap by design (expression walks plus vector pushes, no
// allocation-heavy passes) because the sizing loop re-elaborates the deck
// once per candidate; `bench/micro_perf` tracks the latency (abl_netlist).
//
// Structural lint performed here, each reported with the card's file/line:
//   - unknown model / subckt names, wrong port counts;
//   - element values sim::Circuit rejects (R <= 0, C < 0, ...);
//   - cyclic .subckt instantiation;
//   - dangling nodes (touched by fewer than two device terminals);
//   - no ground connection anywhere in the flattened circuit.

#include <map>
#include <string>
#include <vector>

#include "circuits/pdk.hpp"
#include "netlist/parser.hpp"
#include "sim/circuit.hpp"

namespace kato::net {

/// Transient run parameters resolved from `.tran` / `.ic` cards.
struct TranSetup {
  bool present = false;
  double tstep = 0.0;
  double tstop = 0.0;
  bool fixed_step = false;
  bool backward_euler = false;
  std::vector<std::pair<int, double>> ics;  ///< node index -> initial volts
};

struct Elaboration {
  sim::Circuit circuit;
  std::map<std::string, int> nodes;             ///< flat node name -> index
  std::map<std::string, std::size_t> vsources;  ///< flat card name -> index
  std::vector<double> freqs;  ///< AC grid from .ac; empty when absent
  TranSetup tran;             ///< transient setup; present iff the deck has .tran
  double temperature = 300.0;
};

/// PDK-derived builtin parameters available to every deck expression:
/// vdd, lmin, lmax, is180 (1 when pdk.name == "180nm", else 0).
std::map<std::string, double> pdk_builtins(const ckt::Pdk& pdk);

/// Why `kelvin` cannot be a .temp / .corner temp= value on `pdk` ("" when
/// it can): it must be finite and at least the device-table floor of the
/// PDK's MOS models (sim::device_table_min_temp).
std::string temperature_problem(double kelvin, const ckt::Pdk& pdk);

/// Why the subthreshold slope `n` (> 0, as elaboration enforces for a MOS
/// `.model ... n=` override) cannot be simulated at `kelvin` ("" when it
/// can): its device table must fit sim::k_device_table_max_cells.
std::string subthreshold_n_problem(double n, double kelvin);

/// Apply the `.mc` mismatch draws for sample index `sample` to every MOSFET
/// of an elaborated circuit: vth0 += vth_sigma * z1 and kp *= 1 + beta_sigma
/// * z2 (floored at 5% of nominal), with z1/z2 standard-normal draws from a
/// stream seeded by the sample index alone.  Devices are perturbed in
/// elaboration (deck) order and both draws are consumed even when a sigma is
/// zero, so sample k's perturbation is a deterministic function of (k,
/// device order) — independent of the candidate point, the corner, the
/// thread count and any other sample.
void apply_mos_mismatch(sim::Circuit& ckt, std::size_t sample,
                        double vth_sigma, double beta_sigma);

/// Flatten `deck` against `pdk`.  `bindings` resolves identifiers in device
/// expressions: .param constants, sizing-variable values and builtins
/// (chain further frames via Scope::parent).  Throws NetlistError on any
/// structural or expression error.
Elaboration elaborate(const Deck& deck, const ckt::Pdk& pdk, const Scope& bindings);

}  // namespace kato::net
