#include "kernel/stationary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/lanes.hpp"
#include "util/parallel.hpp"

namespace kato::kern {

namespace {
constexpr double k_sqrt3 = 1.7320508075688772;
constexpr double k_sqrt5 = 2.23606797749979;

double ard_r2(std::span<const double> a, std::span<const double> b,
              std::span<const double> w) {
  double r2 = 0.0;
  for (std::size_t j = 0; j < w.size(); ++j) {
    const double diff = a[j] - b[j];
    r2 += w[j] * diff * diff;
  }
  return r2;
}

/// Rows per posterior_input_grad chunk: their coefficients sit on the stack.
constexpr std::size_t k_grad_chunk = 64;

/// One register pass of posterior_input_grad over dims [m, m + g L::width)
/// and rows [i0, i1) of x2, whose coefficients (s2 dg/dr2) 2 are c[i - i0]:
/// dk = (c w_m) (x_m - x2(i, m)), dmean_m += dk alpha_i and, unless
/// mean_only, dvar_m += (-2 dk) kinv_k_i.  Every entry takes its rows in
/// increasing i with separate multiplies and adds, as the scalar loop does.
template <class L, std::size_t g, bool mean_only>
KATO_LA_INLINE void input_grad_pass(const double* x, const double* w,
                                    const la::Matrix& x2, std::size_t i0,
                                    std::size_t i1, const double* c,
                                    const double* alpha, const double* kinv_k,
                                    double* dmean, double* dvar,
                                    std::size_t m) {
  using V = typename L::V;
  constexpr std::size_t lw = L::width;
  V xv[g], wv[g], dm[g];
  V dv[g] = {};  // unused in the mean-only mode
#pragma GCC unroll 2
  for (std::size_t q = 0; q < g; ++q) {
    xv[q] = la::at<L>(x + m + q * lw);
    wv[q] = la::at<L>(w + m + q * lw);
    dm[q] = la::at<L>(dmean + m + q * lw);
    if constexpr (!mean_only) dv[q] = la::at<L>(dvar + m + q * lw);
  }
  for (std::size_t i = i0; i < i1; ++i) {
    const double* xi = x2.row(i).data() + m;
    const double ci = c[i - i0];
#pragma GCC unroll 2
    for (std::size_t q = 0; q < g; ++q) {
      const V dk = ci * wv[q] * (xv[q] - la::at<L>(xi + q * lw));
      dm[q] += dk * alpha[i];
      if constexpr (!mean_only) dv[q] += -2.0 * dk * kinv_k[i];
    }
  }
#pragma GCC unroll 2
  for (std::size_t q = 0; q < g; ++q) {
    la::at<L>(dmean + m + q * lw) = dm[q];
    if constexpr (!mean_only) la::at<L>(dvar + m + q * lw) = dv[q];
  }
}

/// All dims of one chunk of rows: passes of two registers, then one, then a
/// scalar tail with the same arithmetic.
template <class L, bool mean_only>
KATO_LA_INLINE void input_grad_chunk(const double* x, const double* w,
                                     std::size_t d, const la::Matrix& x2,
                                     std::size_t i0, std::size_t i1,
                                     const double* c, const double* alpha,
                                     const double* kinv_k, double* dmean,
                                     double* dvar) {
  constexpr std::size_t lw = L::width;
  std::size_t m = 0;
  for (; m + 2 * lw <= d; m += 2 * lw)
    input_grad_pass<L, 2, mean_only>(x, w, x2, i0, i1, c, alpha, kinv_k,
                                     dmean, dvar, m);
  for (; m + lw <= d; m += lw)
    input_grad_pass<L, 1, mean_only>(x, w, x2, i0, i1, c, alpha, kinv_k,
                                     dmean, dvar, m);
  for (; m < d; ++m)
    for (std::size_t i = i0; i < i1; ++i) {
      const double dk = c[i - i0] * w[m] * (x[m] - x2(i, m));
      dmean[m] += dk * alpha[i];
      if constexpr (!mean_only) dvar[m] += -2.0 * dk * kinv_k[i];
    }
}

using InputGradChunk = void (*)(const double*, const double*, std::size_t,
                                const la::Matrix&, std::size_t, std::size_t,
                                const double*, const double*, const double*,
                                double*, double*);

// The two builds of the chunk, with and without the variance gradient (see
// linalg/lanes.hpp).
template <bool mean_only>
void input_grad_sse2(const double* x, const double* w, std::size_t d,
                     const la::Matrix& x2, std::size_t i0, std::size_t i1,
                     const double* c, const double* alpha,
                     const double* kinv_k, double* dmean, double* dvar) {
  input_grad_chunk<la::L2, mean_only>(x, w, d, x2, i0, i1, c, alpha, kinv_k,
                                      dmean, dvar);
}

#if KATO_LA_AVX2
template <bool mean_only>
KATO_LA_TARGET_AVX2 void input_grad_avx2(
    const double* x, const double* w, std::size_t d, const la::Matrix& x2,
    std::size_t i0, std::size_t i1, const double* c, const double* alpha,
    const double* kinv_k, double* dmean, double* dvar) {
  input_grad_chunk<la::L4, mean_only>(x, w, d, x2, i0, i1, c, alpha, kinv_k,
                                      dmean, dvar);
}
#endif

InputGradChunk input_grad_build(bool mean_only) {
#if KATO_LA_AVX2
  if (la::active_isa() == la::Isa::avx2)
    return mean_only ? input_grad_avx2<true> : input_grad_avx2<false>;
#endif
  return mean_only ? input_grad_sse2<true> : input_grad_sse2<false>;
}

/// Fit-scoped caches for StationaryArd.  Pairs (i, j > i) are stored packed
/// row-major: pair_base(i) + (j - i - 1).
class StationaryFitWs final : public Kernel::FitWorkspace {
 public:
  const la::Matrix* x = nullptr;
  std::size_t n = 0;
  std::size_t d = 0;
  std::vector<double> diff2;  ///< per pair: d squared coordinate deltas
  std::vector<double> r2;     ///< per pair, from the last matrix_ws call
  std::vector<double> g;      ///< per pair: g(r2), ditto
  std::vector<double> aux;    ///< per pair: log1p(r2 / 2 alpha), RQ only
  std::vector<double> w;      ///< exponentiated ARD weights scratch
  la::Matrix rowg;            ///< n x n_params partial grads; reduced in row
                              ///< order so any thread count is bit-identical

  std::size_t pair_base(std::size_t i) const { return i * (2 * n - i - 1) / 2; }
};
}  // namespace

double softplus(double x) {
  if (x > 30.0) return x;
  if (x < -30.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

double softplus_deriv(double x) {
  if (x > 30.0) return 1.0;
  if (x < -30.0) return std::exp(x);
  return 1.0 / (1.0 + std::exp(-x));
}

StationaryArd::StationaryArd(StationaryType type, std::size_t dim)
    : type_(type), dim_(dim) {
  if (dim == 0) throw std::invalid_argument("StationaryArd: dim must be > 0");
  // log sigma^2 = 0, log w_j = 0, RQ: log alpha = 0.
  params_.assign(1 + dim + (type == StationaryType::rq ? 1 : 0), 0.0);
}

std::string StationaryArd::name() const {
  switch (type_) {
    case StationaryType::rbf: return "rbf";
    case StationaryType::rq: return "rq";
    case StationaryType::matern32: return "matern32";
    case StationaryType::matern52: return "matern52";
  }
  return "stationary";
}

double StationaryArd::amplitude2() const { return std::exp(params_[0]); }
double StationaryArd::weight(std::size_t j) const { return std::exp(params_[1 + j]); }
double StationaryArd::alpha() const { return std::exp(params_[1 + dim_]); }

std::vector<double> StationaryArd::weights() const {
  std::vector<double> w(dim_);
  for (std::size_t j = 0; j < dim_; ++j) w[j] = std::exp(params_[1 + j]);
  return w;
}

double StationaryArd::g(double r2) const {
  switch (type_) {
    case StationaryType::rbf:
      return std::exp(-r2);
    case StationaryType::rq: {
      const double a = alpha();
      return std::pow(1.0 + r2 / (2.0 * a), -a);
    }
    case StationaryType::matern32: {
      const double r = std::sqrt(r2);
      return (1.0 + k_sqrt3 * r) * std::exp(-k_sqrt3 * r);
    }
    case StationaryType::matern52: {
      const double r = std::sqrt(r2);
      return (1.0 + k_sqrt5 * r + 5.0 * r2 / 3.0) * std::exp(-k_sqrt5 * r);
    }
  }
  throw std::logic_error("StationaryArd::g: unknown type");
}

double StationaryArd::dg_dr2(double r2) const {
  switch (type_) {
    case StationaryType::rbf:
      return -std::exp(-r2);
    case StationaryType::rq: {
      const double a = alpha();
      return -0.5 * std::pow(1.0 + r2 / (2.0 * a), -a - 1.0);
    }
    case StationaryType::matern32: {
      // dg/dr2 = dg/dr * 1/(2r); analytic limit 3/2*... at r->0 is -3/2.
      const double r = std::sqrt(r2);
      if (r < 1e-12) return -1.5;
      const double dg_dr = -3.0 * r * std::exp(-k_sqrt3 * r);
      return dg_dr / (2.0 * r);
    }
    case StationaryType::matern52: {
      const double r = std::sqrt(r2);
      if (r < 1e-12) return -5.0 / 6.0;
      const double dg_dr =
          -(5.0 / 3.0) * r * (1.0 + k_sqrt5 * r) * std::exp(-k_sqrt5 * r);
      return dg_dr / (2.0 * r);
    }
  }
  throw std::logic_error("StationaryArd::dg_dr2: unknown type");
}

double StationaryArd::dg_dalpha(double r2) const {
  if (type_ != StationaryType::rq) return 0.0;
  const double a = alpha();
  const double t = r2 / (2.0 * a);
  const double base = 1.0 + t;
  // d/da [ exp(-a ln(1+t)) ] with t depending on a.
  return std::pow(base, -a) * (-std::log(base) + t / base);
}

la::Matrix StationaryArd::cross(const la::Matrix& x1, const la::Matrix& x2) const {
  const double s2 = amplitude2();
  const auto w = weights();
  la::Matrix k(x1.rows(), x2.rows());
  for (std::size_t i = 0; i < x1.rows(); ++i)
    for (std::size_t j = 0; j < x2.rows(); ++j)
      k(i, j) = s2 * g(ard_r2(x1.row(i), x2.row(j), w));
  return k;
}

la::Matrix StationaryArd::matrix(const la::Matrix& x) const {
  const double s2 = amplitude2();
  const auto w = weights();
  const std::size_t n = x.rows();
  la::Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double kv = s2 * g(ard_r2(x.row(i), x.row(j), w));
      k(i, j) = kv;
      k(j, i) = kv;
    }
  return k;
}

double StationaryArd::diag(std::span<const double>) const { return amplitude2(); }

void StationaryArd::backward(const la::Matrix& x, const la::Matrix& dk,
                             std::span<double> grad) const {
  if (grad.size() != params_.size())
    throw std::invalid_argument("StationaryArd::backward: grad size mismatch");
  const double s2 = amplitude2();
  const auto w = weights();
  const std::size_t n = x.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double up = dk(i, j);
      if (up == 0.0) continue;
      const double r2 = ard_r2(x.row(i), x.row(j), w);
      const double gv = g(r2);
      // d k / d log sigma^2 = k.
      grad[0] += up * s2 * gv;
      const double dgr2 = dg_dr2(r2);
      for (std::size_t m = 0; m < dim_; ++m) {
        const double diff = x(i, m) - x(j, m);
        // d r2 / d log w_m = w_m diff^2.
        grad[1 + m] += up * s2 * dgr2 * w[m] * diff * diff;
      }
      if (type_ == StationaryType::rq) {
        const double a = alpha();
        grad[1 + dim_] += up * s2 * dg_dalpha(r2) * a;
      }
    }
  }
}

la::Matrix StationaryArd::input_grad(std::span<const double> x,
                                     const la::Matrix& x2) const {
  const double s2 = amplitude2();
  const auto w = weights();
  la::Matrix out(x2.rows(), dim_);
  for (std::size_t j = 0; j < x2.rows(); ++j) {
    const double r2 = ard_r2(x, x2.row(j), w);
    const double dgr2 = dg_dr2(r2);
    for (std::size_t m = 0; m < dim_; ++m) {
      // d r2/dx_m = 2 w (x_m - x2_m).
      out(j, m) = s2 * dgr2 * 2.0 * w[m] * (x[m] - x2(j, m));
    }
  }
  return out;
}

void StationaryArd::posterior_input_grad(std::span<const double> x,
                                         const la::Matrix& x2,
                                         std::span<const double> kx,
                                         std::span<const double> alpha,
                                         std::span<const double> kinv_k,
                                         std::span<double> dmean,
                                         std::span<double> dvar) const {
  // Runs once per query per source metric in KAT-GP training: the ARD
  // weights live on the stack for every realistic design-space size.
  constexpr std::size_t k_stack_dims = 64;
  double w_stack[k_stack_dims];
  std::vector<double> w_heap(dim_ > k_stack_dims ? dim_ : 0);
  const std::span<double> w(dim_ > k_stack_dims ? w_heap.data() : w_stack,
                            dim_);
  for (std::size_t m = 0; m < dim_; ++m) w[m] = std::exp(params_[1 + m]);
  const double s2 = amplitude2();
  const bool mean_only = dvar.empty();
  const InputGradChunk chunk = input_grad_build(mean_only);
  // Per chunk of rows: the coefficients (s2 dg/dr2) 2 first, scalar (the
  // non-RBF types call dg_dr2), then the register passes over the dims.
  double c[k_grad_chunk];
  for (std::size_t i0 = 0; i0 < x2.rows(); i0 += k_grad_chunk) {
    const std::size_t i1 = std::min(x2.rows(), i0 + k_grad_chunk);
    for (std::size_t i = i0; i < i1; ++i) {
      const double s2_dgr2 = type_ == StationaryType::rbf
                                 ? -kx[i]
                                 : s2 * dg_dr2(ard_r2(x, x2.row(i), w));
      // Same product order as input_grad(): ((s2 dg/dr2) 2 w_m) diff_m.
      c[i - i0] = s2_dgr2 * 2.0;
    }
    chunk(x.data(), w.data(), dim_, x2, i0, i1, c, alpha.data(),
          mean_only ? nullptr : kinv_k.data(), dmean.data(),
          mean_only ? nullptr : dvar.data());
  }
}

std::unique_ptr<Kernel> StationaryArd::clone() const {
  return std::make_unique<StationaryArd>(*this);
}

std::unique_ptr<Kernel::FitWorkspace> StationaryArd::fit_workspace(
    const la::Matrix& x) const {
  auto ws = std::make_unique<StationaryFitWs>();
  const std::size_t n = x.rows();
  ws->x = &x;
  ws->n = n;
  ws->d = dim_;
  const std::size_t pairs = n * (n - 1) / 2;
  ws->diff2.resize(pairs * dim_);
  ws->r2.resize(pairs);
  ws->g.resize(pairs);
  if (type_ == StationaryType::rq) ws->aux.resize(pairs);
  ws->w.resize(dim_);
  ws->rowg = la::Matrix(n, params_.size());
  // Pairwise squared deltas are hyperparameter-independent: computed once per
  // fit, reused by every LML iteration.
  for (std::size_t i = 0; i < n; ++i) {
    double* out = ws->diff2.data() + ws->pair_base(i) * dim_;
    for (std::size_t j = i + 1; j < n; ++j)
      for (std::size_t m = 0; m < dim_; ++m) {
        const double diff = x(i, m) - x(j, m);
        *out++ = diff * diff;
      }
  }
  return ws;
}

void StationaryArd::matrix_ws(FitWorkspace& base, la::Matrix& k) const {
  auto& ws = static_cast<StationaryFitWs&>(base);
  const std::size_t n = ws.n;
  if (k.rows() != n || k.cols() != n) k = la::Matrix(n, n);
  const double s2 = amplitude2();
  for (std::size_t m = 0; m < dim_; ++m) ws.w[m] = std::exp(params_[1 + m]);
  const double a = type_ == StationaryType::rq ? alpha() : 0.0;

  util::parallel_for(n, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      k(i, i) = s2;
      const double* d2 = ws.diff2.data() + ws.pair_base(i) * dim_;
      std::size_t t = ws.pair_base(i);
      for (std::size_t j = i + 1; j < n; ++j, ++t, d2 += dim_) {
        double r2 = 0.0;
        for (std::size_t m = 0; m < dim_; ++m) r2 += ws.w[m] * d2[m];
        ws.r2[t] = r2;
        double gv;
        switch (type_) {
          case StationaryType::rbf:
            gv = std::exp(-r2);
            break;
          case StationaryType::rq: {
            // g = base^-alpha via log1p+exp; the log is cached for the
            // alpha-gradient so backward_ws needs no transcendental at all.
            const double lb = std::log1p(r2 / (2.0 * a));
            ws.aux[t] = lb;
            gv = std::exp(-a * lb);
            break;
          }
          case StationaryType::matern32: {
            const double r = std::sqrt(r2);
            gv = (1.0 + k_sqrt3 * r) * std::exp(-k_sqrt3 * r);
            break;
          }
          case StationaryType::matern52: {
            const double r = std::sqrt(r2);
            gv = (1.0 + k_sqrt5 * r + 5.0 * r2 / 3.0) * std::exp(-k_sqrt5 * r);
            break;
          }
          default:
            throw std::logic_error("StationaryArd::matrix_ws: unknown type");
        }
        ws.g[t] = gv;
        const double kv = s2 * gv;
        k(i, j) = kv;
        k(j, i) = kv;
      }
    }
  });
}

void StationaryArd::backward_ws(FitWorkspace& base, const la::Matrix& dk,
                                std::span<double> grad) const {
  auto& ws = static_cast<StationaryFitWs&>(base);
  if (grad.size() != params_.size())
    throw std::invalid_argument("StationaryArd::backward_ws: grad size mismatch");
  const std::size_t n = ws.n;
  const std::size_t np = params_.size();
  const double s2 = amplitude2();
  const bool is_rq = type_ == StationaryType::rq;
  const double a = is_rq ? alpha() : 0.0;
  ws.rowg.data().assign(ws.rowg.data().size(), 0.0);

  // Each row accumulates the contributions of its pairs (i, j > i) plus its
  // diagonal entry into rowg.row(i); the serial row-order reduction below
  // makes the result independent of the parallel chunking.
  util::parallel_for(n, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      double* row = ws.rowg.data().data() + i * np;
      row[0] += dk(i, i) * s2;  // diagonal: r2 = 0, g = 1, dg terms vanish
      const double* d2 = ws.diff2.data() + ws.pair_base(i) * dim_;
      std::size_t t = ws.pair_base(i);
      for (std::size_t j = i + 1; j < n; ++j, ++t, d2 += dim_) {
        const double up = dk(i, j) + dk(j, i);
        if (up == 0.0) continue;
        const double gv = ws.g[t];
        row[0] += up * s2 * gv;
        // dg/dr2 recovered from the cached g: no exp/pow in this loop.
        double dgr2;
        switch (type_) {
          case StationaryType::rbf:
            dgr2 = -gv;
            break;
          case StationaryType::rq:
            dgr2 = -0.5 * gv / (1.0 + ws.r2[t] / (2.0 * a));
            break;
          case StationaryType::matern32:
            dgr2 = -1.5 * gv / (1.0 + k_sqrt3 * std::sqrt(ws.r2[t]));
            break;
          case StationaryType::matern52: {
            const double r = std::sqrt(ws.r2[t]);
            const double e = gv / (1.0 + k_sqrt5 * r + 5.0 * ws.r2[t] / 3.0);
            dgr2 = -(5.0 / 6.0) * (1.0 + k_sqrt5 * r) * e;
            break;
          }
          default:
            throw std::logic_error("StationaryArd::backward_ws: unknown type");
        }
        const double c = up * s2 * dgr2;
        for (std::size_t m = 0; m < dim_; ++m)
          row[1 + m] += c * ws.w[m] * d2[m];
        if (is_rq) {
          const double tt = ws.r2[t] / (2.0 * a);
          const double dg_da = gv * (-ws.aux[t] + tt / (1.0 + tt));
          row[1 + dim_] += up * s2 * dg_da * a;
        }
      }
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    const double* row = ws.rowg.data().data() + i * np;
    for (std::size_t p = 0; p < np; ++p) grad[p] += row[p];
  }
}

PeriodicArd::PeriodicArd(std::size_t dim) : dim_(dim) {
  if (dim == 0) throw std::invalid_argument("PeriodicArd: dim must be > 0");
  params_.assign(1 + dim + 1, 0.0);  // log s2, log w_j, log p
}

double PeriodicArd::amplitude2() const { return std::exp(params_[0]); }
double PeriodicArd::weight(std::size_t j) const { return std::exp(params_[1 + j]); }
double PeriodicArd::period() const { return std::exp(params_[1 + dim_]); }

la::Matrix PeriodicArd::cross(const la::Matrix& x1, const la::Matrix& x2) const {
  const double s2 = amplitude2();
  const double p = period();
  la::Matrix k(x1.rows(), x2.rows());
  for (std::size_t i = 0; i < x1.rows(); ++i)
    for (std::size_t j = 0; j < x2.rows(); ++j) {
      double e = 0.0;
      for (std::size_t m = 0; m < dim_; ++m) {
        const double s = std::sin(M_PI * (x1(i, m) - x2(j, m)) / p);
        e += weight(m) * s * s;
      }
      k(i, j) = s2 * std::exp(-2.0 * e);
    }
  return k;
}

double PeriodicArd::diag(std::span<const double>) const { return amplitude2(); }

void PeriodicArd::backward(const la::Matrix& x, const la::Matrix& dk,
                           std::span<double> grad) const {
  if (grad.size() != params_.size())
    throw std::invalid_argument("PeriodicArd::backward: grad size mismatch");
  const double s2 = amplitude2();
  const double p = period();
  const std::size_t n = x.rows();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const double up = dk(i, j);
      if (up == 0.0) continue;
      double e = 0.0;
      for (std::size_t m = 0; m < dim_; ++m) {
        const double s = std::sin(M_PI * (x(i, m) - x(j, m)) / p);
        e += weight(m) * s * s;
      }
      const double kv = s2 * std::exp(-2.0 * e);
      grad[0] += up * kv;  // d/d log s2
      double de_dp = 0.0;
      for (std::size_t m = 0; m < dim_; ++m) {
        const double diff = x(i, m) - x(j, m);
        const double s = std::sin(M_PI * diff / p);
        // d e / d log w_m = w_m sin^2.
        grad[1 + m] += up * kv * (-2.0) * weight(m) * s * s;
        // d sin^2(pi diff/p) / dp = -sin(2 pi diff / p) * pi diff / p^2.
        de_dp += weight(m) * (-std::sin(2.0 * M_PI * diff / p)) * M_PI * diff / (p * p);
      }
      grad[1 + dim_] += up * kv * (-2.0) * de_dp * p;  // chain to log p
    }
}

la::Matrix PeriodicArd::input_grad(std::span<const double> x,
                                   const la::Matrix& x2) const {
  const double s2 = amplitude2();
  const double p = period();
  la::Matrix out(x2.rows(), dim_);
  for (std::size_t j = 0; j < x2.rows(); ++j) {
    double e = 0.0;
    for (std::size_t m = 0; m < dim_; ++m) {
      const double s = std::sin(M_PI * (x[m] - x2(j, m)) / p);
      e += weight(m) * s * s;
    }
    const double kv = s2 * std::exp(-2.0 * e);
    for (std::size_t m = 0; m < dim_; ++m) {
      const double diff = x[m] - x2(j, m);
      // d e/dx_m = w_m sin(2 pi diff / p) * pi / p.
      const double de = weight(m) * std::sin(2.0 * M_PI * diff / p) * M_PI / p;
      out(j, m) = kv * (-2.0) * de;
    }
  }
  return out;
}

std::unique_ptr<Kernel> PeriodicArd::clone() const {
  return std::make_unique<PeriodicArd>(*this);
}

}  // namespace kato::kern
