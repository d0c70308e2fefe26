#pragma once
// Table-based MOSFET evaluation for the MNA hot path.
//
// Every Newton iteration of every DC / transient solve evaluates every
// MOSFET, and each analytic evaluation pays two transcendentals (log1p/exp
// inside the softplus-smoothed overdrive and its logistic derivative).  The
// corner x MC fan-out multiplies the number of such solves per candidate by
// up to 24x, so the device model is the dominant scalar work between linear
// solves.
//
// The level-1 EKV-smoothed model factorizes exactly: vds enters the drain
// current polynomially (triode (veff - vds/2)*vds, saturation veff^2/2, CLM
// 1 + lambda*vds), so the only transcendental content is one-dimensional in
// the overdrive vov = vgs - vth.  DeviceTable therefore tabulates the
// smoothed overdrive
//
//     veff(vov)  = 2 n vt * softplus(vov / 2 n vt)
//     dveff(vov) = logistic(vov / 2 n vt)          (= d veff / d vgs)
//
// on a uniform vov grid with C1 cubic-Hermite interpolation (exact values
// AND exact slopes at every knot), and the polynomial part — triode/sat
// split, CLM, W/L scaling through beta = kp_t W / L and lambda =
// lambda_coef / L — is applied analytically per device.  One table with a
// few thousand knots therefore serves:
//
//   * every W/L in the sizing box (scaling is outside the table),
//   * both polarities (PMOS mirrors onto the same normalized curve),
//   * every Monte-Carlo vth0/kp mismatch sample (both shift/scale outside
//     the table),
//   * every gmin rung, Newton iteration, timestep, corner and candidate at
//     the same temperature.
//
// Tables are keyed by (subthreshold_n, temp) only — the two quantities that
// set the smoothing scale 2 n vt — and cached process-wide behind a mutex
// (least recently used first out past k_device_table_cache_cap keys), so
// all assemblers, threads and fan-outs share one build per key.
//
// Accuracy: with step h = nvt/8 the cubic-Hermite relative error on veff is
// ~(h / 2 n vt)^4 / 384 ~ 1e-8; the worst-case amplification through the
// triode/saturation boundary keeps ids/gm/gds within 1e-4 relative of the
// analytic model over the PDK bias boxes (pinned by device_table_test).
// Outside the grid ([-4 V, +4 V] of overdrive) the exact analytic
// expressions take over, so clamping never degrades robustness.
//
// Routing: MnaOptions::device_eval (and the DC / transient / netlist
// request fields that feed it) picks the path, the table by default.  The
// analytic path is bit-identical to the historical eval_mosfet behavior
// (pinned by tests) and stays as the reference and as the transient
// recovery ladder's fallback.

#include <cstddef>
#include <memory>
#include <vector>

#include "sim/mosfet.hpp"

namespace kato::sim {

/// Device-model evaluation path for the MNA assembler.
enum class DeviceEval { analytic, table };

/// Cap on a table's cell count.  300 K needs ~2k cells; the cap bounds one
/// table at 16384 cells x 64 B = 1 MB.
inline constexpr std::size_t k_device_table_max_cells = 16384;

/// Lowest temperature (K) whose table for `subthreshold_n` fits within
/// k_device_table_max_cells (~34 K for the shipped PDKs).
double device_table_min_temp(double subthreshold_n);

/// Precomputed veff/dveff curve for one (subthreshold_n, temp) key.
/// Throws std::invalid_argument when the key needs no cell or more than
/// k_device_table_max_cells (temp below device_table_min_temp).
/// Immutable after construction; shared across threads freely.
class DeviceTable {
 public:
  DeviceTable(double subthreshold_n, double temp);

  /// Interpolated smoothed overdrive and its vgs-derivative at `vov`.
  /// Inside the grid: the cell's C1 cubic-Hermite interpolant, pre-expanded
  /// to power basis at build time so the hot path is two 3-term Horner
  /// chains over one cache line of coefficients — no basis-polynomial
  /// arithmetic, no transcendentals.  Outside: the exact analytic
  /// expressions.
  void veff_at(double vov, double& veff, double& dveff) const {
    const double t = (vov - lo_) * inv_step_;
    // NaN vov fails the first comparison and takes the analytic tail,
    // which propagates the NaN exactly like the analytic path does.
    if (!(t >= 0.0) || t >= cells_d_) {
      tail_at(vov, veff, dveff);
      return;
    }
    // Signed cast: t is in [0, cells) here, and double->signed converts in
    // one instruction where double->unsigned needs a compare-and-branch.
    const long c = static_cast<long>(t);
    const double u = t - static_cast<double>(c);
    // Cell layout (8 doubles): a0..a3 (veff in u), b0..b3 (dveff in u).
    // Estrin split (a0 + a1 u) + (a2 + a3 u) u^2: both halves and u^2 are
    // independent, so the chains overlap even without FMA hardware.
    const double* cf = &k_[8 * c];
    const double u2 = u * u;
    veff = (cf[0] + cf[1] * u) + (cf[2] + cf[3] * u) * u2;
    dveff = (cf[4] + cf[5] * u) + (cf[6] + cf[7] * u) * u2;
  }

  double subthreshold_n() const { return n_; }
  double temp() const { return temp_; }
  double nvt2() const { return nvt2_; }
  double vov_min() const { return lo_; }
  double vov_max() const { return hi_; }
  double step() const { return step_; }
  std::size_t n_knots() const { return k_.size() / 8 + 1; }

 private:
  /// Exact analytic evaluation for out-of-grid overdrives (cold path).
  void tail_at(double vov, double& veff, double& dveff) const;

  double n_;
  double temp_;
  double nvt2_;
  double lo_;
  double hi_;
  double step_;
  double inv_step_;
  double cells_d_;  ///< (double)(n_knots - 1), for the range check
  std::vector<double> k_;
};

/// Capacity of the process-wide table cache.  A deck touches only a handful
/// of keys (its corner temperatures x its model-card slope factors), each
/// ~1.8k cells * 64 B; a `.temp` that depends on a sizing variable makes a
/// new key per evaluation, so the cache evicts the least recently used
/// table past this many (~7 MB at 300 K).
inline constexpr std::size_t k_device_table_cache_cap = 64;

/// Process-wide LRU table cache: one build per (subthreshold_n, temp) key,
/// shared by every assembler/thread/corner/candidate.  An evicted table
/// stays valid for every caller still holding it.  `hit` (optional)
/// reports whether the key was already cached and `evicted` (optional)
/// whether this lookup evicted another key — the assembler feeds both into
/// its SimStats counters.
std::shared_ptr<const DeviceTable> device_table_for(double subthreshold_n,
                                                    double temp,
                                                    bool* hit = nullptr,
                                                    bool* evicted = nullptr);

/// Number of distinct keys currently cached (tests/diagnostics), at most
/// k_device_table_cache_cap.
std::size_t device_table_cache_size();

/// Table-path device evaluation: normalized NMOS/PMOS + reverse-vds
/// handling from mosfet.hpp with the transcendental core replaced by the
/// table lookup.  Inline: this is the per-device body of the assembler's
/// SoA loop.
inline MosOp eval_mosfet_table(const DeviceTable& t, const MosPre& p,
                               double vgs, double vds) {
  return mos_eval_normalized(
      p, vgs, vds, [&t](double vov, double& veff, double& dveff) {
        t.veff_at(vov, veff, dveff);
      });
}

}  // namespace kato::sim
