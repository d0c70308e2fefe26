#pragma once
// Shared MNA Newton assembler used by the DC and transient solvers.
//
// The assembler stamps the nonlinear device equations (resistors, sources,
// VCCS, diodes, MOSFETs, voltage-source branch rows) exactly as the DC
// operating-point analysis always has; the transient solver layers two
// extensions on top of the same path:
//
//   * companion stamps — linear Norton equivalents (geq, ieq) produced by
//     the integration rule for each capacitor at the current timestep;
//   * voltage-source value overrides — the waveform value at the timestep
//     replaces the DC value in the branch equation (quiet sources keep dc).
//
// Keeping one assembler guarantees a transient run linearizes the devices
// with the same code (and therefore bit-identical arithmetic) as the DC
// solve that seeds it.
//
// Linear solves route through one of two paths, chosen per system:
//
//   dense    in-place LU on a persistent workspace (la::lu_solve_into) —
//            best for the small hand-written benchmark circuits;
//   sparse   CSC + symbolic-factorization reuse (la::SparseLu).  The stamp
//            destinations of every device are resolved once per topology
//            into flat value-array slots, so each Newton iteration is a
//            value fill plus an in-place numeric refactorization with the
//            recorded pivot sequence — zero allocation, and the symbolic
//            analysis is shared across all iterations, gmin rungs and
//            transient timesteps an assembler lives through.
//
// MnaSolver::automatic switches on system size (k_mna_sparse_crossover);
// an explicit MnaOptions::solver request forces one path.
//
// Device evaluation is requested per assembler (MnaOptions::device_eval,
// the table path by default): the per-device temperature/geometry terms are
// hoisted once into structure-of-arrays state at construction, and the
// per-Newton MOSFET loop either runs the analytic model from that state
// (bit-identical to the historical per-call eval_mosfet path) or the
// precomputed-table model (sim/device_table.hpp), writing straight into
// the resolved stamp slots either way.

#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "obs/obs.hpp"
#include "sim/circuit.hpp"
#include "sim/device_table.hpp"

namespace kato::sim {

/// Linear companion element: current geq * (v(a) - v(b)) + ieq flowing
/// a -> b (either node may be ground).
struct CompanionStamp {
  int a;
  int b;
  double geq;
  double ieq;
};

/// Compact double-to-string rendering ("1e-12", "0.5") for solver failure
/// reasons — shared by the DC and transient diagnostics.
std::string fmt_double(double v);

/// Linear-solve path selection for the MNA analyses.
enum class MnaSolver { automatic, dense, sparse };

/// Size at which MnaSolver::automatic switches to the sparse path.  Dense
/// O(n^3) with an O(n^2) zero-fill per iteration wins below it; measured on
/// the shipped decks the crossover sits around a few dozen unknowns (see
/// bench/micro_perf abl_sparse_lu).
inline constexpr std::size_t k_mna_sparse_crossover = 48;

/// Resolve `requested` for a system of `size` unknowns: an explicit request
/// wins, `automatic` takes the size crossover.
MnaSolver resolve_mna_solver(MnaSolver requested, std::size_t size);

/// Newton-iteration knobs shared by DC and transient (see DcOptions for the
/// recommended DC values).
struct NewtonOptions {
  int max_iterations = 200;
  double v_tol = 1e-9;    ///< convergence on max |dV|
  double max_step = 0.5;  ///< damping: max voltage change per iteration [V]
};

/// Assembler construction knobs (DC and transient build these from their
/// own option structs).
struct MnaOptions {
  double gmin = 1e-12;
  double temp = 300.0;  ///< simulation temperature [K]
  MnaSolver solver = MnaSolver::automatic;
  /// Device-model path (sim/device_table.hpp).
  DeviceEval device_eval = DeviceEval::table;
};

class MnaAssembler {
 public:
  MnaAssembler(const Circuit& ckt, const MnaOptions& opts);

  /// Change the gmin continuation value.  Cheap: the stamp plan and the
  /// symbolic factorization survive (only values change), which is what
  /// lets the DC solver walk the whole gmin ladder on one assembler.
  void set_gmin(double gmin) { gmin_ = gmin; }

  /// Override the voltage-source values (index-parallel to ckt.vsources());
  /// nullptr restores the DC values.  The pointee must outlive the calls.
  void set_vsource_values(const std::vector<double>* values) {
    vsrc_values_ = values;
  }

  /// Attach companion stamps (transient integration rule); nullptr detaches.
  /// Node indices inside the stamps are part of the precomputed pattern:
  /// changing the *values* per timestep is free, attaching a different
  /// stamp list rebuilds the plan.
  void set_companions(const std::vector<CompanionStamp>* companions) {
    if (companions_ != companions) invalidate_plans();
    companions_ = companions;
  }

  /// Build Jacobian and residual at x; returns false on non-finite values.
  /// Always dense (this is the reference/A-B path and the linearization
  /// inspection hook for tests).
  bool assemble(const la::Vector& x, la::Matrix& jac, la::Vector& res) const;

  /// Damped Newton iteration from the given start; returns the converged
  /// flag.  On failure `reason` (when non-null) receives a description.
  bool newton(la::Vector& x, const NewtonOptions& opts,
              std::string* reason = nullptr) const;

  /// The resolved solve path this assembler uses.
  MnaSolver solver() const { return solver_; }

  /// The resolved device-model path this assembler uses.
  DeviceEval device_eval() const { return device_; }

  /// Counters accumulated over this assembler's lifetime: Newton iterations
  /// and damping clamps, linear-solve first-factor/refactor/pivot-fallback
  /// splits, device-table cache hits at construction.  The analyses diff
  /// snapshots of this around each newton() call to attribute work per gmin
  /// rung / timestep; pure observation, never fed back into the arithmetic.
  const obs::SimStats& stats() const { return stats_; }

 private:
  struct DiodePre {
    double nvt;   ///< ideality * thermal voltage
    double is_t;  ///< temperature-scaled saturation current
  };

  void invalidate_plans() {
    dense_ready_ = false;
    sparse_ready_ = false;
  }
  void ensure_dense_plan() const;
  void ensure_sparse_plan() const;
  /// Shared device-evaluation core: accumulates stamps through `slots`
  /// (one entry per stamp in canonical order; k_sparse_npos = ground, skip)
  /// into the flat value array `vals` and fills the residual.  Returns
  /// false on non-finite residual entries.
  bool assemble_values(const la::Vector& x, double* vals, la::Vector& res,
                       const std::vector<std::size_t>& slots) const;
  /// One Newton linear solve on the resolved path: assembles at x into
  /// the path's workspace, negates the residual and solves the Jacobian
  /// into step_ws_, counting the factorization.  Returns the failure
  /// reason, or nullptr on success.
  const char* newton_step(const la::Vector& x) const;

  const Circuit& ckt_;
  double gmin_;
  double temp_;
  std::size_t n_;
  std::size_t size_;
  MnaSolver solver_;
  const std::vector<double>* vsrc_values_ = nullptr;
  const std::vector<CompanionStamp>* companions_ = nullptr;
  /// Per-diode temperature terms, hoisted out of the Newton loop (they
  /// depend on temp only, never on the iterate).
  std::vector<DiodePre> diode_pre_;
  // Structure-of-arrays MOSFET state, hoisted at construction: the
  // temperature/geometry terms of MosPre plus resolved MNA row indices per
  // terminal (-1 = ground).  The per-Newton device loop walks these flat
  // arrays — no MosModel indirection, no per-call pow/temperature work —
  // and stamps through the canonical slot plan.
  DeviceEval device_;
  std::vector<double> mos_sign_;
  std::vector<double> mos_vth_;
  std::vector<double> mos_nvt2_;
  std::vector<double> mos_beta_;
  std::vector<double> mos_lambda_;
  std::vector<int> mos_d_;
  std::vector<int> mos_g_;
  std::vector<int> mos_s_;
  /// Per-device table pointer (model cards may override subthreshold_n, so
  /// devices of one circuit can map to different keys); null on the
  /// analytic path.  table_refs_ keeps the shared cache entries alive.
  std::vector<const DeviceTable*> mos_tab_;
  std::vector<std::shared_ptr<const DeviceTable>> table_refs_;
  // Stamp plans: slot per stamp in canonical order, resolved lazily once
  // per topology.  Dense slots index the row-major Jacobian, sparse slots
  // the CSC value array.  All solver state is per-assembler scratch,
  // reused across iterations and timesteps (one assembler lives for a
  // whole analysis; not thread-safe, like the class).
  mutable bool dense_ready_ = false;
  mutable bool sparse_ready_ = false;
  mutable std::vector<std::size_t> dense_slots_;
  mutable std::vector<std::size_t> sparse_slots_;
  mutable la::SparseLu lu_;
  mutable std::vector<double> values_;
  mutable la::Matrix jac_ws_;
  mutable la::Vector res_ws_;
  mutable la::Vector step_ws_;
  /// Lifetime counters (see stats()); mutable like the solver workspaces —
  /// newton() is logically const and the counters observe, not configure.
  mutable obs::SimStats stats_;
};

}  // namespace kato::sim
