#pragma once
// Nonlinear time-domain (transient) analysis over the MNA circuit.
//
// Capacitors (explicit plus MOSFET parasitics — the same `linear_caps` set
// the AC analysis uses) become Norton companion models: trapezoidal by
// default, with backward-Euler for the first step after t = 0 / any
// waveform breakpoint / a Newton failure (the classic startup-and-fallback
// discipline that keeps the A-stable trapezoidal rule from ringing across
// discontinuities).  Each timestep runs the damped Newton iteration of the
// DC solver (shared sim::MnaAssembler) with the waveform value of every
// voltage source evaluated at the new time; quiet sources stay at their DC
// value.
//
// Step control is LTE-based: the solution is predicted by polynomial
// extrapolation through the last accepted points and the predictor-
// corrector difference is compared against reltol/abstol; rejected steps
// shrink, accepted steps may grow, and waveform breakpoints (pulse corners,
// PWL knots, sine start) are always landed on exactly.  `fixed_step` runs
// the uniform k*tstep grid with no LTE rejection — the mode the
// integrator-order golden tests use; a Newton failure still subdivides the
// step, then the next step re-aligns to the nominal grid.  Everything is deterministic double arithmetic: a transient
// run is a pure function of (circuit, options), independent of KATO_THREADS.

#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "sim/circuit.hpp"
#include "sim/dc.hpp"
#include "sim/mna.hpp"

namespace kato::sim {

struct TranOptions {
  double tstop = 0.0;   ///< end time [s] (required, > 0)
  double tstep = 0.0;   ///< initial/suggested step; 0 -> tstop / 1000
  double dtmax = 0.0;   ///< adaptive step ceiling; 0 -> tstop / 50
  bool fixed_step = false;      ///< uniform tstep grid, no LTE control
  bool backward_euler = false;  ///< force backward Euler for every step
  double reltol = 1e-4;  ///< LTE control: relative part of the tolerance
  double abstol = 1e-6;  ///< LTE control: absolute part [V]
  double temp = 300.0;   ///< simulation temperature [K]
  /// Linear-solve path for every timestep (and the internal t = 0 solve);
  /// see sim::MnaSolver — `automatic` switches on system size.
  MnaSolver solver = MnaSolver::automatic;
  /// Device-model path for every timestep's Newton loop (and the internal
  /// t = 0 solve): precomputed-table vs analytic MOSFET evaluation, with
  /// the (subthreshold_n, temp)-keyed tables shared across all timesteps.
  DeviceEval device_eval = DeviceEval::table;
  NewtonOptions newton{50, 1e-9, 0.5};  ///< per-timestep Newton knobs
  DcOptions dc;  ///< options for the internal t = 0 operating-point solve
  /// Initial-condition overrides (node -> volts), applied after the t = 0
  /// operating point: the node starts the integration at the given voltage
  /// (the netlist `.ic v(node)=value` card).  Branch currents keep their
  /// operating-point values at t = 0 — the first Newton step resolves them
  /// against the overridden voltages, so with ICs the t = 0 sample is
  /// approximate for source-current measures (avg_power).
  std::vector<std::pair<int, double>> initial_conditions;
};

struct TranResult {
  bool ok = false;
  std::string reason;  ///< failure description when !ok
  std::vector<double> time;                ///< accepted time points (t=0 first)
  std::vector<la::Vector> node_voltage;    ///< per point, indexed by node
  std::vector<std::vector<double>> vsource_current;  ///< per point, per source
  /// Solver-work counters for the whole run: the per-timestep Newton/LU
  /// work plus step control (accepted / LTE-rejected / BE / Newton-retry
  /// counts) plus the internal t = 0 operating point when one was solved.
  obs::SimStats stats;

  std::size_t n_points() const { return time.size(); }
  double v(std::size_t ti, int node) const {
    return node_voltage[ti][static_cast<std::size_t>(node)];
  }
};

/// Run the transient analysis.  The initial state is the DC operating point
/// with every waveform source held at its t = 0 value; when `op0` (a
/// converged DC solve of the same circuit) is supplied and the t = 0 values
/// equal the DC values it is reused directly, otherwise it only warm-starts
/// the internal solve.  Initial-condition overrides are applied on top.
TranResult solve_tran(const Circuit& ckt, const TranOptions& opts,
                      const DcResult* op0 = nullptr);

// --- Transient measure library --------------------------------------------
//
// All measures operate on the stored time points with linear interpolation
// between them.  "Swing" below means v_final - v_initial where v_initial is
// the value at time.front() and v_final the value at time.back(); measures
// that need a swing return 0 when |swing| < 1e-12 V.

/// Node voltage at time t (linear interpolation, clamped to the window).
double tran_value_at(const TranResult& res, int node, double t);

/// Largest / smallest node voltage over the run.
double tran_vmax(const TranResult& res, int node);
double tran_vmin(const TranResult& res, int node);

/// 10%-90% slew rate of the initial->final transition [V/s]: 0.8 * |swing|
/// over the time between the first 10% and the following 90% crossing.
/// Returns 0 when the node never completes the transition.
double tran_slew_rate(const TranResult& res, int node);

/// Time after which the node stays within tol_frac * |swing| of its final
/// value for the rest of the run [s]; 0 when it never leaves the band.
double tran_settling_time(const TranResult& res, int node, double tol_frac);

/// Peak excursion beyond the final value, as a fraction of |swing|
/// (0 when the response never overshoots).
double tran_overshoot(const TranResult& res, int node);

/// Delay from the input's 50% crossing of its own swing to the output's
/// 50% crossing [s], clamped at 0 (an output crossing before the input
/// reads as zero delay, never negative).  When either side never crosses,
/// returns 2x the window length — a finite sentinel strictly larger than
/// any genuine delay, so a spec on it fails cleanly and distinguishably.
double tran_prop_delay(const TranResult& res, int in_node, int out_node);

/// Time-average power delivered by voltage source `vsource_index` [W]:
/// mean of (v_p - v_n) * (-i_branch) over the run (trapezoidal in time).
double tran_avg_power(const TranResult& res, const Circuit& ckt,
                      std::size_t vsource_index);

}  // namespace kato::sim
