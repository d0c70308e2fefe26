#include "sim/mna.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "linalg/lu.hpp"
#include "util/fault.hpp"

namespace kato::sim {

std::string fmt_double(double v) {
  // Matches the historical std::ostringstream rendering ("%g" with 6
  // significant digits) without constructing a stream per call.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

MnaSolver resolve_mna_solver(MnaSolver requested, std::size_t size) {
  if (const char* env = std::getenv("KATO_SPARSE")) {
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "dense") == 0)
      return MnaSolver::dense;
    if (std::strcmp(env, "1") == 0 || std::strcmp(env, "sparse") == 0)
      return MnaSolver::sparse;
    // Anything else ("", "auto") falls through to the request.
  }
  if (requested != MnaSolver::automatic) return requested;
  return size >= k_mna_sparse_crossover ? MnaSolver::sparse : MnaSolver::dense;
}

namespace {

struct DiodeEval {
  double i;
  double g;
};

/// Diode current with exponent limiting for Newton robustness.  The
/// temperature-dependent saturation-current term arrives precomputed (it
/// never changes across iterations of one analysis).
DiodeEval eval_diode(double nvt, double is_t, double v) {
  const double z = v / nvt;
  constexpr double z_max = 40.0;
  DiodeEval e;
  if (z > z_max) {
    const double e_max = std::exp(z_max);
    e.i = is_t * (e_max * (1.0 + z - z_max) - 1.0);
    e.g = is_t * e_max / nvt;
  } else {
    const double ez = std::exp(z);
    e.i = is_t * (ez - 1.0);
    e.g = is_t * ez / nvt + 1e-12;
  }
  return e;
}

/// Enumerate every Jacobian stamp destination in the canonical order
/// assemble_values consumes them.  `emit(row, col)` receives
/// la::k_sparse_npos coordinates for ground-involving stamps so the slot
/// sequence stays positionally aligned with the value adds.
template <typename Emit>
void for_each_stamp(const Circuit& ckt, std::size_t n,
                    const std::vector<CompanionStamp>* companions,
                    Emit&& emit) {
  constexpr std::size_t npos = la::k_sparse_npos;
  auto idx = [](int node) {
    return node == 0 ? npos : static_cast<std::size_t>(node) - 1;
  };
  auto pair4 = [&](int a, int b) {
    const std::size_t ia = idx(a);
    const std::size_t ib = idx(b);
    emit(ia, ia);
    emit(ia, ib);
    emit(ib, ia);
    emit(ib, ib);
  };
  for (std::size_t i = 0; i < n; ++i) emit(i, i);  // gmin diagonal
  for (const auto& r : ckt.resistors()) pair4(r.a, r.b);
  for (const auto& c : ckt.vccs()) {
    emit(idx(c.p), idx(c.cp));
    emit(idx(c.p), idx(c.cn));
    emit(idx(c.n), idx(c.cp));
    emit(idx(c.n), idx(c.cn));
  }
  for (const auto& d : ckt.diodes()) pair4(d.a, d.c);
  for (const auto& m : ckt.mosfets()) {
    emit(idx(m.d), idx(m.g));
    emit(idx(m.d), idx(m.d));
    emit(idx(m.d), idx(m.s));
    emit(idx(m.s), idx(m.g));
    emit(idx(m.s), idx(m.d));
    emit(idx(m.s), idx(m.s));
  }
  if (companions != nullptr)
    for (const auto& c : *companions) pair4(c.a, c.b);
  const auto& vs = ckt.vsources();
  for (std::size_t k = 0; k < vs.size(); ++k) {
    const std::size_t bi = n + k;
    emit(idx(vs[k].p), bi);
    emit(idx(vs[k].n), bi);
    emit(bi, idx(vs[k].p));
    emit(bi, idx(vs[k].n));
  }
}

}  // namespace

MnaAssembler::MnaAssembler(const Circuit& ckt, const MnaOptions& opts)
    : ckt_(ckt), gmin_(opts.gmin), temp_(opts.temp), n_(ckt.n_nodes() - 1),
      size_(ckt.mna_size()),
      solver_(resolve_mna_solver(opts.solver, ckt.mna_size())),
      device_(resolve_device_eval(opts.device_eval)) {
  diode_pre_.reserve(ckt_.diodes().size());
  const double vt = thermal_voltage(temp_);
  for (const auto& d : ckt_.diodes()) {
    const double nvt = d.ideality * vt;
    const double is_t = d.area * d.is_sat *
                        std::pow(temp_ / 300.0, d.xti / d.ideality) *
                        std::exp((temp_ / 300.0 - 1.0) * d.eg / nvt);
    diode_pre_.push_back({nvt, is_t});
  }

  // Hoist the MOSFET temperature/geometry terms into SoA arrays (the
  // per-Newton loop in assemble_values never touches MosInstance again).
  const auto& mosfets = ckt_.mosfets();
  mos_sign_.reserve(mosfets.size());
  mos_vth_.reserve(mosfets.size());
  mos_nvt2_.reserve(mosfets.size());
  mos_beta_.reserve(mosfets.size());
  mos_lambda_.reserve(mosfets.size());
  mos_d_.reserve(mosfets.size());
  mos_g_.reserve(mosfets.size());
  mos_s_.reserve(mosfets.size());
  mos_tab_.reserve(mosfets.size());
  auto row = [](int node) { return node == 0 ? -1 : node - 1; };
  for (const auto& mos : mosfets) {
    const MosPre p = mos_precompute(mos.model, mos.w, mos.l, temp_);
    mos_sign_.push_back(p.sign);
    mos_vth_.push_back(p.vth);
    mos_nvt2_.push_back(p.nvt2);
    mos_beta_.push_back(p.beta);
    mos_lambda_.push_back(p.lambda);
    mos_d_.push_back(row(mos.d));
    mos_g_.push_back(row(mos.g));
    mos_s_.push_back(row(mos.s));
    if (device_ == DeviceEval::table) {
      // Shared process-wide cache: repeated keys are pointer lookups, so
      // per-device fetching keeps mixed-model decks correct for free.
      bool hit = false;
      bool evicted = false;
      table_refs_.push_back(
          device_table_for(mos.model.subthreshold_n, temp_, &hit, &evicted));
      mos_tab_.push_back(table_refs_.back().get());
      ++(hit ? stats_.device_table_hits : stats_.device_table_misses);
      if (evicted) ++stats_.device_table_evictions;
    } else {
      mos_tab_.push_back(nullptr);
    }
  }
}

MnaAssembler::MnaAssembler(const Circuit& ckt, double gmin, double temp,
                           MnaSolver solver)
    : MnaAssembler(ckt, MnaOptions{gmin, temp, solver,
                                   DeviceEval::automatic}) {}

void MnaAssembler::ensure_dense_plan() const {
  if (dense_ready_) return;
  dense_slots_.clear();
  for_each_stamp(ckt_, n_, companions_, [&](std::size_t r, std::size_t c) {
    dense_slots_.push_back(r == la::k_sparse_npos || c == la::k_sparse_npos
                               ? la::k_sparse_npos
                               : r * size_ + c);
  });
  dense_ready_ = true;
}

void MnaAssembler::ensure_sparse_plan() const {
  if (sparse_ready_) return;
  std::vector<la::Coord> coords;
  for_each_stamp(ckt_, n_, companions_, [&](std::size_t r, std::size_t c) {
    if (r != la::k_sparse_npos && c != la::k_sparse_npos)
      coords.push_back({r, c});
  });
  const la::SparsePattern pattern(size_, coords);
  sparse_slots_.clear();
  for_each_stamp(ckt_, n_, companions_, [&](std::size_t r, std::size_t c) {
    sparse_slots_.push_back(r == la::k_sparse_npos || c == la::k_sparse_npos
                                ? la::k_sparse_npos
                                : pattern.slot(r, c));
  });
  lu_.analyze(pattern);
  values_.assign(pattern.nnz(), 0.0);
  sparse_ready_ = true;
}

bool MnaAssembler::assemble_values(const la::Vector& x, double* vals,
                                   la::Vector& res,
                                   const std::vector<std::size_t>& slots) const {
  res.assign(size_, 0.0);
  auto v = [&](int node) {
    return node == 0 ? 0.0 : x[static_cast<std::size_t>(node) - 1];
  };
  auto idx = [](int node) { return static_cast<std::size_t>(node) - 1; };
  auto kcl = [&](int node, double current) {
    if (node != 0) res[idx(node)] += current;
  };
  // Stamps are consumed strictly in the canonical for_each_stamp order;
  // both walks iterate the device lists identically, so `s` stays aligned.
  std::size_t s = 0;
  auto add = [&](double g) {
    const std::size_t t = slots[s++];
    if (t != la::k_sparse_npos) vals[t] += g;
  };

  // gmin from every node to ground.
  for (std::size_t i = 0; i < n_; ++i) {
    res[i] += gmin_ * x[i];
    add(gmin_);
  }

  for (const auto& r : ckt_.resistors()) {
    const double g = 1.0 / r.r;
    const double i = g * (v(r.a) - v(r.b));
    kcl(r.a, i);
    kcl(r.b, -i);
    add(g);
    add(-g);
    add(-g);
    add(g);
  }
  for (const auto& src : ckt_.isources()) {
    kcl(src.p, src.dc);
    kcl(src.n, -src.dc);
  }
  for (const auto& c : ckt_.vccs()) {
    const double i = c.gm * (v(c.cp) - v(c.cn));
    kcl(c.p, i);
    kcl(c.n, -i);
    add(c.gm);
    add(-c.gm);
    add(-c.gm);
    add(c.gm);
  }
  for (std::size_t di = 0; di < ckt_.diodes().size(); ++di) {
    const auto& d = ckt_.diodes()[di];
    const auto e =
        eval_diode(diode_pre_[di].nvt, diode_pre_[di].is_t, v(d.a) - v(d.c));
    kcl(d.a, e.i);
    kcl(d.c, -e.i);
    add(e.g);
    add(-e.g);
    add(-e.g);
    add(e.g);
  }
  // MOSFETs: flat SoA loop over the hoisted per-device state.  One branch
  // on the resolved device path (table vs analytic) is hoisted out of the
  // loop; the analytic arm reproduces the historical eval_mosfet stamps
  // bit-for-bit (pinned by tests), the table arm replaces the softplus /
  // logistic transcendentals with the shared C1 table lookup.
  {
    const std::size_t n_mos = mos_beta_.size();
    auto vrow = [&](int r) {
      return r < 0 ? 0.0 : x[static_cast<std::size_t>(r)];
    };
    auto kcl_row = [&](int r, double current) {
      if (r >= 0) res[static_cast<std::size_t>(r)] += current;
    };
    auto stamp = [&](int d, int s, const MosOp& op) {
      kcl_row(d, op.ids);
      kcl_row(s, -op.ids);
      add(op.gm);
      add(op.gds);
      add(-(op.gm + op.gds));
      add(-op.gm);
      add(-op.gds);
      add(op.gm + op.gds);
    };
    if (device_ == DeviceEval::table) {
      for (std::size_t i = 0; i < n_mos; ++i) {
        const MosPre p{mos_sign_[i], mos_vth_[i], mos_nvt2_[i], mos_beta_[i],
                       mos_lambda_[i]};
        const double vs = vrow(mos_s_[i]);
        const MosOp op = eval_mosfet_table(*mos_tab_[i], p,
                                           vrow(mos_g_[i]) - vs,
                                           vrow(mos_d_[i]) - vs);
        stamp(mos_d_[i], mos_s_[i], op);
      }
    } else {
      for (std::size_t i = 0; i < n_mos; ++i) {
        const MosPre p{mos_sign_[i], mos_vth_[i], mos_nvt2_[i], mos_beta_[i],
                       mos_lambda_[i]};
        const double vs = vrow(mos_s_[i]);
        const MosOp op =
            eval_mosfet_pre(p, vrow(mos_g_[i]) - vs, vrow(mos_d_[i]) - vs);
        stamp(mos_d_[i], mos_s_[i], op);
      }
    }
  }
  // Companion stamps (transient integration rule for capacitors).
  if (companions_ != nullptr) {
    for (const auto& c : *companions_) {
      const double i = c.geq * (v(c.a) - v(c.b)) + c.ieq;
      kcl(c.a, i);
      kcl(c.b, -i);
      add(c.geq);
      add(-c.geq);
      add(-c.geq);
      add(c.geq);
    }
  }
  // Voltage sources: branch current unknowns.
  const auto& vs = ckt_.vsources();
  for (std::size_t k = 0; k < vs.size(); ++k) {
    const std::size_t bi = n_ + k;
    const double ib = x[bi];
    const double value = vsrc_values_ != nullptr ? (*vsrc_values_)[k] : vs[k].dc;
    kcl(vs[k].p, ib);
    kcl(vs[k].n, -ib);
    add(1.0);
    add(-1.0);
    res[bi] = v(vs[k].p) - v(vs[k].n) - value;
    add(1.0);
    add(-1.0);
  }
  // The two walks (for_each_stamp emitting slots, this one consuming them)
  // are hand-aligned; a divergence must fail loudly, not corrupt stamps.
  if (s != slots.size())
    throw std::logic_error(
        "MnaAssembler: stamp walk consumed " + std::to_string(s) +
        " slots but the plan has " + std::to_string(slots.size()) +
        " (for_each_stamp and assemble_values diverged)");
  for (double r : res)
    if (!std::isfinite(r)) return false;
  return true;
}

bool MnaAssembler::assemble(const la::Vector& x, la::Matrix& jac,
                            la::Vector& res) const {
  ensure_dense_plan();
  // Reuse the caller's storage across Newton iterations (and, via a
  // caller-held workspace, across timesteps): this sits on the transient
  // per-timestep hot path tracked by abl_tran_step_ms.
  if (jac.rows() != size_ || jac.cols() != size_)
    jac = la::Matrix(size_, size_);
  else
    std::fill(jac.data().begin(), jac.data().end(), 0.0);
  return assemble_values(x, jac.data().data(), res, dense_slots_);
}

bool MnaAssembler::newton_dense(la::Vector& x, const NewtonOptions& opts,
                                std::string* reason) const {
  la::Matrix& jac = jac_ws_;
  la::Vector& res = res_ws_;
  ++stats_.newton_solves;
  for (int it = 0; it < opts.max_iterations; ++it) {
    // Cooperative deadline poll, amortized: a clock read per sub-microsecond
    // iteration would cost real time, one per 16 catches runaways just fine —
    // and polling at 15/31/... keeps quickly-converging solves (the common
    // case: a handful of iterations per timestep) entirely clock-free.
    if ((it & 15) == 15 && util::deadline_exceeded()) {
      if (reason) *reason = "deadline exceeded (KATO_EVAL_DEADLINE_MS)";
      return false;
    }
    ++stats_.newton_iters;
    if (!assemble(x, jac, res)) {
      if (reason) *reason = "non-finite device currents in the MNA residual";
      return false;
    }
    for (auto& r : res) r = -r;
    // In-place: jac/res are re-filled next iteration anyway, so the
    // historical pass-by-value copies bought nothing.
    if (!la::lu_solve_into(jac, res, step_ws_)) {
      if (reason) *reason = "singular MNA Jacobian";
      return false;
    }
    // The dense path factors from scratch every iteration; counting the
    // first as "first factor" keeps the first/refactor split meaningful
    // across both solver paths (an assembler uses exactly one).
    ++(stats_.lu_first_factors == 0 ? stats_.lu_first_factors
                                    : stats_.lu_refactors);
    double max_dv = 0.0;
    bool clamped = false;
    for (std::size_t i = 0; i < size_; ++i) {
      double dv = step_ws_[i];
      if (i < n_) {
        const double raw = dv;
        dv = std::clamp(dv, -opts.max_step, opts.max_step);
        clamped |= dv != raw;
      }
      x[i] += dv;
      if (i < n_) max_dv = std::max(max_dv, std::abs(dv));
    }
    if (clamped) ++stats_.damping_clamps;
    if (max_dv < opts.v_tol) return true;
  }
  if (reason)
    *reason = "Newton did not converge in " +
              std::to_string(opts.max_iterations) + " iterations";
  return false;
}

bool MnaAssembler::newton_sparse(la::Vector& x, const NewtonOptions& opts,
                                 std::string* reason) const {
  ensure_sparse_plan();
  la::Vector& res = res_ws_;
  ++stats_.newton_solves;
  for (int it = 0; it < opts.max_iterations; ++it) {
    if ((it & 15) == 15 && util::deadline_exceeded()) {
      if (reason) *reason = "deadline exceeded (KATO_EVAL_DEADLINE_MS)";
      return false;
    }
    ++stats_.newton_iters;
    std::fill(values_.begin(), values_.end(), 0.0);
    if (!assemble_values(x, values_.data(), res, sparse_slots_)) {
      if (reason) *reason = "non-finite device currents in the MNA residual";
      return false;
    }
    for (auto& r : res) r = -r;
    // First iteration of the assembler's life pivots and records the
    // symbolic structure; every later call here — across iterations, gmin
    // rungs and timesteps — is an in-place numeric refactorization.  A
    // pivot-pass delta on a refactor means the recorded pivot order went
    // stale and the factorization fell back to a fresh pivoting pass.
    const bool first_factor = !lu_.factored();
    const std::size_t pivots_before = lu_.pivot_passes();
    if (!lu_.factor(values_)) {
      if (reason) *reason = "singular MNA Jacobian";
      return false;
    }
    if (first_factor) {
      ++stats_.lu_first_factors;
    } else {
      ++stats_.lu_refactors;
      stats_.lu_pivot_fallbacks += lu_.pivot_passes() - pivots_before;
    }
    lu_.solve(res, step_ws_);
    // Match the dense path's contract: a non-finite step leaves x untouched
    // (the dense LU reports those as singular before applying anything).
    for (double dv : step_ws_)
      if (!std::isfinite(dv)) {
        if (reason) *reason = "singular MNA Jacobian";
        return false;
      }
    double max_dv = 0.0;
    bool clamped = false;
    for (std::size_t i = 0; i < size_; ++i) {
      double dv = step_ws_[i];
      if (i < n_) {
        const double raw = dv;
        dv = std::clamp(dv, -opts.max_step, opts.max_step);
        clamped |= dv != raw;
      }
      x[i] += dv;
      if (i < n_) max_dv = std::max(max_dv, std::abs(dv));
    }
    if (clamped) ++stats_.damping_clamps;
    if (max_dv < opts.v_tol) return true;
  }
  if (reason)
    *reason = "Newton did not converge in " +
              std::to_string(opts.max_iterations) + " iterations";
  return false;
}

bool MnaAssembler::newton(la::Vector& x, const NewtonOptions& opts,
                          std::string* reason) const {
  return solver_ == MnaSolver::sparse ? newton_sparse(x, opts, reason)
                                      : newton_dense(x, opts, reason);
}

}  // namespace kato::sim
