// Microbenchmarks for the hot paths: Neuk kernel-matrix construction and
// backward pass, dense matmul/Cholesky, GP fit step, per-point vs batched GP
// prediction, batched source-GP gradients (the KAT-GP source stage), MACE
// proposal generation, MNA circuit evaluation and NSGA-II.
//
// Usage:
//   micro_perf             human-readable table
//   micro_perf --json      also writes BENCH_micro_perf.json (machine
//                          readable; later PRs diff it for perf trajectory)
//
// The batched-prediction entries report the headline number for this
// harness: `gp_predict_batch` must stay >= 2x faster than the per-point
// loop (`speedup` field in the JSON).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "linalg/lu.hpp"

#include "bo/drivers.hpp"
#include "bo/mace.hpp"
#include "bo/surrogate.hpp"
#include "circuits/factory.hpp"
#include "gp/gp.hpp"
#include "gp/kat_gp.hpp"
#include "kernel/neuk.hpp"
#include "kernel/stationary.hpp"
#include "linalg/cholesky.hpp"
#include "moo/nsga2.hpp"
#include "netlist/netlist_circuit.hpp"
#include "obs/journal.hpp"
#include "obs/obs.hpp"
#include "sim/transient.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

#ifndef KATO_SOURCE_DIR
#define KATO_SOURCE_DIR "."
#endif

using namespace kato;

namespace {

struct BenchResult {
  std::string name;
  double ms_per_iter = 0.0;
  std::size_t iterations = 0;
};

std::vector<BenchResult> g_results;

/// Run fn repeatedly until ~min_total_ms of wall clock is spent (at least
/// twice), then record the mean per-iteration time.
template <typename Fn>
double bench(const std::string& name, Fn&& fn, double min_total_ms = 300.0) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up (excluded)
  std::size_t iters = 0;
  const auto start = clock::now();
  double elapsed_ms = 0.0;
  while (elapsed_ms < min_total_ms || iters < 2) {
    fn();
    ++iters;
    elapsed_ms = std::chrono::duration<double, std::milli>(clock::now() - start)
                     .count();
  }
  const double per_iter = elapsed_ms / static_cast<double>(iters);
  g_results.push_back({name, per_iter, iters});
  std::cout << "  " << name << ": " << per_iter << " ms/iter (" << iters
            << " iters)\n";
  return per_iter;
}

/// A/B arms timed as the minimum over interleaved windows: the min is the
/// standard noise-robust per-iteration estimator, and alternating the arms
/// means any neighbor load hits both equally instead of whichever arm
/// happened to run during the spike.  The floored ratio then tracks the
/// code, not the runner.
template <typename FnA, typename FnB>
std::pair<double, double> bench_ab(const std::string& name_a, FnA&& fn_a,
                                   const std::string& name_b, FnB&& fn_b) {
  using clock = std::chrono::steady_clock;
  constexpr int n_windows = 8;
  constexpr double window_ms = 40.0;
  double best_a = 0.0;
  double best_b = 0.0;
  std::size_t iters_a = 0;
  std::size_t iters_b = 0;
  fn_a();
  fn_b();  // warm-up (excluded)
  for (int w = 0; w < n_windows; ++w) {
    for (int arm = 0; arm < 2; ++arm) {
      std::size_t iters = 0;
      const auto start = clock::now();
      double ms = 0.0;
      while (ms < window_ms || iters < 2) {
        arm == 0 ? fn_a() : fn_b();
        ++iters;
        ms = std::chrono::duration<double, std::milli>(clock::now() - start)
                 .count();
      }
      const double per = ms / static_cast<double>(iters);
      auto& best = arm == 0 ? best_a : best_b;
      auto& total = arm == 0 ? iters_a : iters_b;
      if (best == 0.0 || per < best) best = per;
      total += iters;
    }
  }
  g_results.push_back({name_a, best_a, iters_a});
  g_results.push_back({name_b, best_b, iters_b});
  std::cout << "  " << name_a << ": " << best_a << " ms/iter (" << iters_a
            << " iters, min of " << n_windows << " interleaved windows)\n";
  std::cout << "  " << name_b << ": " << best_b << " ms/iter (" << iters_b
            << " iters, min of " << n_windows << " interleaved windows)\n";
  return {best_a, best_b};
}

la::Matrix random_points(std::size_t n, std::size_t d, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix x(n, d);
  for (auto& v : x.data()) v = rng.uniform();
  return x;
}

/// Pins KATO_THREADS for one scope and restores the caller's value on exit,
/// so a row that fixes its thread count does not leak it into later rows.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    if (const char* prev = std::getenv("KATO_THREADS")) saved_ = prev;
    set(value);
  }
  ~ThreadsEnv() {
    if (saved_)
      set(saved_->c_str());
    else
      unsetenv("KATO_THREADS");
  }
  ThreadsEnv(const ThreadsEnv&) = delete;
  ThreadsEnv& operator=(const ThreadsEnv&) = delete;
  void set(const char* value) { setenv("KATO_THREADS", value, 1); }

 private:
  std::optional<std::string> saved_;
};

volatile double g_sink = 0.0;

void sink(double v) { g_sink = g_sink + v; }

gp::GaussianProcess make_fitted_gp(std::size_t n, std::size_t d,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  kern::NeukConfig cfg;
  gp::GaussianProcess model(std::make_unique<kern::NeukKernel>(d, cfg, rng));
  const auto x = random_points(n, d, seed + 1);
  la::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = std::sin(3.0 * x(i, 0)) + x(i, 1);
  model.set_data(x, y);
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) json = true;

  std::cout << "== micro_perf (KATO_THREADS=" << util::thread_count()
            << ", la_isa=" << la::isa_name(la::active_isa()) << ") ==\n";

  // Kernel construction / backward.
  {
    util::Rng rng(1);
    kern::NeukConfig cfg;
    kern::NeukKernel k(8, cfg, rng);
    const auto x = random_points(128, 8, 2);
    bench("neuk_matrix_n128", [&] { sink(k.matrix(x)(0, 0)); });
    la::Matrix dk(128, 128, 1.0);
    std::vector<double> grad(k.n_params());
    bench("neuk_backward_n128", [&] {
      std::fill(grad.begin(), grad.end(), 0.0);
      k.backward(x, dk, grad);
      sink(grad[0]);
    });
  }

  // Dense linear algebra.
  {
    const auto a = random_points(256, 256, 3);
    const auto b = random_points(256, 256, 4);
    bench("matmul_256", [&] { sink(la::matmul(a, b)(0, 0)); });
    la::Matrix spd = la::matmul_nt(a, a);
    for (std::size_t i = 0; i < spd.rows(); ++i) spd(i, i) += 256.0;
    bench("cholesky_256", [&] { sink((*la::cholesky(spd))(0, 0)); });
    // The triangular algebra of one GP hyper-training step at the training
    // cap (n = 192): factor, triangular inverse and inverse Gram K^-1.
    const std::size_t n = 192;
    const auto g = random_points(n, n, 41);
    la::Matrix k = la::matmul_nt(g, g);
    for (std::size_t i = 0; i < n; ++i) k(i, i) += static_cast<double>(n);
    la::Matrix l;
    la::Matrix kinv;
    la::Matrix t;
    bench("chol_inv_gram_n192", [&] {
      la::cholesky_into(k, l);
      la::cholesky_inverse_into(l, kinv, t);
      sink(kinv(0, 0));
    });
    // The GP posterior's K^-1 k contraction (KAT-GP's source stage): one
    // 8-query block against K^-1 at n = 200.
    {
      const std::size_t nk = 200;
      const auto gk = random_points(nk, nk, 43);
      la::Matrix kk = la::matmul_nt(gk, gk);
      for (std::size_t i = 0; i < nk; ++i) kk(i, i) += static_cast<double>(nk);
      la::Matrix lk;
      la::Matrix kinv_k;
      la::Matrix tk;
      la::cholesky_into(kk, lk);
      la::cholesky_inverse_into(lk, kinv_k, tk);
      const auto block = random_points(nk, la::k_contract_block, 44);
      la::Matrix out;
      bench("kinv_contract_n200_q8", [&] {
        la::contract_block(kinv_k, block.data(), la::k_contract_block, out);
        sink(out(7, nk - 1));
      });
    }
    // The batched posterior's forward solve: L V = K_x^T for six queries.
    const auto kx = random_points(256, 6, 42);
    const la::Matrix l256 = *la::cholesky(spd);
    bench("tri_solve_multi_n256_q6", [&] {
      sink(la::solve_lower_multi(l256, kx)(255, 5));
    });
  }

  // GP fit step.
  {
    auto model = make_fitted_gp(256, 8, 5);
    util::Rng rng(6);
    gp::GpFitOptions opts;
    opts.iterations = 1;
    bench("gp_fit_step_n256", [&] {
      model.fit(opts, rng);
      sink(model.noise_var());
    });
  }

  // GP training loop: 12 Adam steps of the fused workspace path at n = 192,
  // each rep from identical hyperparameters (the model is copied), pinned to
  // one thread.
  double fit_ws_ms = 0.0;
  {
    const auto model = make_fitted_gp(192, 8, 21);
    gp::GpFitOptions fused;
    fused.iterations = 12;
    ThreadsEnv threads("1");
    fit_ws_ms = bench(
        "gp_fit_fused_n192x12",
        [&] {
          auto m = model;
          util::Rng rng(22);
          m.fit(fused, rng);
          sink(m.noise_var());
        },
        800.0);
  }

  // Multi-metric training: per-metric GPs fitted concurrently on the
  // persistent pool (pre-PR trained them strictly one after another).
  double multi_serial_ms = 0.0;
  double multi_par_ms = 0.0;
  {
    const std::size_t n = 160;
    const std::size_t d = 8;
    const std::size_t metrics = 4;
    util::Rng rng(23);
    gp::MultiGp multi(metrics, [&] {
      kern::NeukConfig cfg;
      return std::make_unique<kern::NeukKernel>(d, cfg, rng);
    });
    const auto x = random_points(n, d, 24);
    la::Matrix y(n, metrics);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t m = 0; m < metrics; ++m)
        y(i, m) = std::sin(3.0 * x(i, 0) + static_cast<double>(m)) + x(i, 1);
    multi.set_data(x, y);
    gp::GpFitOptions opts;
    opts.iterations = 6;
    ThreadsEnv threads("1");
    multi_serial_ms = bench("multigp_fit_m4_threads1", [&] {
      auto m = multi;
      util::Rng fit_rng(25);
      m.fit(opts, fit_rng);
      sink(m.metric(0).noise_var());
    });
    threads.set("4");
    multi_par_ms = bench("multigp_fit_m4_threads4", [&] {
      auto m = multi;
      util::Rng fit_rng(25);
      m.fit(opts, fit_rng);
      sink(m.metric(0).noise_var());
    });
    std::cout << "  -> multigp pool speedup: " << multi_serial_ms / multi_par_ms
              << "x\n";
  }

  // Untraced pool dispatch latency at 4 threads: 128 trivial items as one
  // flat parallel_for, and as 4 outer items that each dispatch 32 nested
  // ones to idle workers.  The work is nothing, so the rows are the cost of
  // waking workers, claiming chunks and waiting for completion.
  {
    ThreadsEnv threads("4");
    std::vector<double> slots(128, 0.0);
    auto touch = [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) slots[i] += 1.0;
    };
    bench_ab(
        "pool_dispatch_flat_q128",
        [&] { util::parallel_for(slots.size(), touch); },
        "pool_dispatch_nested_q128", [&] {
          util::parallel_for(4, [&](std::size_t o0, std::size_t o1) {
            for (std::size_t o = o0; o < o1; ++o)
              util::parallel_for(32, [&](std::size_t b, std::size_t e) {
                touch(o * 32 + b, o * 32 + e);
              });
          });
        });
    sink(slots[0]);
  }

  // Per-point vs batched prediction: the ratio is the headline number.
  double loop_ms = 0.0;
  double batch_ms = 0.0;
  {
    const std::size_t n_queries = 64;
    auto model = make_fitted_gp(512, 8, 7);
    const auto q = random_points(n_queries, 8, 8);
    loop_ms = bench("gp_predict_loop_n512_q64", [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < n_queries; ++i)
        acc += model.predict(q.row(i)).mean;
      sink(acc);
    });
    batch_ms = bench("gp_predict_batch_n512_q64", [&] {
      const auto preds = model.predict_batch(q);
      sink(preds.front().mean);
    });
    std::cout << "  -> batched speedup: " << loop_ms / batch_ms << "x\n";
  }

  // KAT-GP source stage: one Adam step pushes a 128-point minibatch through
  // each frozen source GP (RBF, n = 200, the transfer workload's shape) with
  // input gradients.  kat_source_grad_speedup is the per-point
  // predict_std_grad loop over the same block divided by the batched call;
  // both arms run in this binary at one thread, so the ratio tracks the
  // batched algebra (shared cross-covariance, blocked K^-1 contraction) and
  // is floored by bench/compare_baseline.py.
  double kat_loop_ms = 0.0;
  double kat_batch_ms = 0.0;
  {
    const std::size_t n_queries = 128;
    const std::size_t d = 8;
    gp::GaussianProcess model(
        std::make_unique<kern::StationaryArd>(kern::StationaryType::rbf, d));
    const auto x = random_points(200, d, 31);
    la::Vector y(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i)
      y[i] = std::sin(3.0 * x(i, 0)) + x(i, 1) * x(i, 2);
    model.set_data(x, y);
    const auto q = random_points(n_queries, d, 32);
    ThreadsEnv threads("1");
    gp::GpPrediction pred;
    la::Vector dm;
    la::Vector dv;
    std::vector<gp::GpPrediction> preds;
    la::Matrix dmean;
    la::Matrix dvar;
    std::tie(kat_loop_ms, kat_batch_ms) = bench_ab(
        "kat_source_grad_loop",
        [&] {
          double acc = 0.0;
          for (std::size_t i = 0; i < n_queries; ++i) {
            model.predict_std_grad(q.row(i), pred, dm, dv);
            acc += pred.var + dv[0];
          }
          sink(acc);
        },
        "kat_source_grad_batch",
        [&] {
          model.predict_std_grad_batch(q, preds, dmean, dvar);
          sink(preds.front().var + dvar(0, 0));
        });
    std::cout << "  -> kat source grad speedup: " << kat_loop_ms / kat_batch_ms
              << "x (n=200, 128 queries)\n";
  }

  // KatGp::fit at the transfer workload's shape: 4 frozen RBF source GPs at
  // n = 200, a 128-point minibatch.  kat_fit_init is a first fit of 100
  // Adam steps, 40 of them the mean-only warm-up; kat_fit_refit is one warm
  // refit of 60 steps (the KatGpConfig default).  kat_fit_refit_ms falls
  // under compare_baseline.py's *_ms tolerance, so it watches the whole
  // training step: encode, source stage, backward and the exact-NLL sweeps.
  double kat_init_ms = 0.0;
  double kat_refit_ms = 0.0;
  {
    const std::size_t d = 8;
    const std::size_t m_s = 4;
    const std::size_t n_src = 200;
    const std::size_t n_tgt = 160;
    gp::MultiGp source(m_s, [&] {
      return std::make_unique<kern::StationaryArd>(kern::StationaryType::rbf, d);
    });
    const auto xs = random_points(n_src, d, 33);
    la::Matrix ys(n_src, m_s);
    for (std::size_t i = 0; i < n_src; ++i)
      for (std::size_t k = 0; k < m_s; ++k)
        ys(i, k) = std::sin((2.0 + static_cast<double>(k)) * xs(i, k)) +
                   xs(i, k + 1) * xs(i, k + 2);
    source.set_data(xs, ys);
    const auto xt = random_points(n_tgt, d, 34);
    la::Matrix yt(n_tgt, 2);
    for (std::size_t i = 0; i < n_tgt; ++i) {
      yt(i, 0) = std::sin(2.5 * xt(i, 0)) + xt(i, 1) * xt(i, 2);
      yt(i, 1) = std::sin(3.5 * xt(i, 1)) + xt(i, 2) * xt(i, 3);
    }
    util::Rng rng(35);
    gp::KatGpConfig cfg;
    cfg.init_iterations = 100;
    kat_init_ms = bench("kat_fit_init", [&] {
      util::Rng init_rng(36);
      gp::KatGp fresh(&source, d, 2, cfg, init_rng);
      fresh.set_target_data(xt, yt);
      fresh.fit(init_rng);
    });
    cfg.init_iterations = 20;  // set-up only: every timed call is a refit
    gp::KatGp kat(&source, d, 2, cfg, rng);
    kat.set_target_data(xt, yt);
    kat.fit(rng);
    kat_refit_ms = bench("kat_fit_refit", [&] { kat.fit(rng); });
  }

  // MACE proposal generation over a fitted surrogate (the BO inner loop).
  {
    util::Rng rng(9);
    gp::GpFitOptions fit{20, 0.05, 192, 1e-6};
    bo::GpSurrogate surr(8, 2, bo::KernelKind::neuk, fit, fit, rng);
    const auto x = random_points(96, 8, 10);
    la::Matrix y(96, 2);
    for (std::size_t i = 0; i < 96; ++i) {
      y(i, 0) = std::sin(3.0 * x(i, 0));
      y(i, 1) = x(i, 1);
    }
    surr.refit(x, y, rng);
    std::vector<ckt::MetricSpec> specs{{"c0", "", 0.5, true}};
    bo::MaceOptions opts;
    opts.nsga.population = 24;
    opts.nsga.generations = 8;
    bench("mace_proposals_n96", [&] {
      util::Rng inner(11);
      sink(static_cast<double>(
          bo::mace_proposals(surr, specs, 0.1, opts, inner, {}).x.size()));
    });
  }

  // Circuit evaluation.  dc_opamp2_eval runs the built-in opamp2 on the
  // default (table) device path; the _analytic row runs the opamp2.cir deck
  // (bit-identical to the built-in class) on the analytic path for the e2e
  // device A/B (the whole-candidate ratio is Amdahl-limited by the AC sweep
  // and the LU solves — the device-kernel ratio itself is abl_mos_eval
  // below).
  double dc_opamp2_ms = 0.0;
  double dc_opamp2_analytic_ms = 0.0;
  {
    auto circuit = ckt::make_circuit("opamp2", "180nm");
    const auto x = circuit->expert_design();
    dc_opamp2_ms = bench("dc_opamp2_eval", [&] {
      const auto m = circuit->evaluate(x);
      sink(m ? (*m)[0] : 0.0);
    });
    ckt::NetlistCircuit deck(
        net::parse_netlist_file(std::string(KATO_SOURCE_DIR) +
                                "/circuits/netlists/opamp2.cir"),
        ckt::pdk_180nm());
    deck.set_device_eval(sim::DeviceEval::analytic);
    const auto xd = deck.expert_design();
    dc_opamp2_analytic_ms = bench("dc_opamp2_eval_analytic", [&] {
      const auto m = deck.evaluate(xd);
      sink(m ? (*m)[0] : 0.0);
    });
    auto bandgap = ckt::make_circuit("bandgap", "180nm");
    const auto xb = bandgap->expert_design();
    bench("bandgap_eval", [&] {
      const auto m = bandgap->evaluate(xb);
      sink(m ? (*m)[0] : 0.0);
    });
  }

  // Device-model kernel (abl_mos_eval): 512 mixed NMOS/PMOS devices across
  // the sizing box on a handful of bias rails, the same device/bias mix the
  // transient Newton loop sees per timestep and evaluate_batch sees across
  // candidates.  Two granularities, same binary:
  //
  //   abl_mos_eval_{analytic,table}      the SoA device-model batch alone
  //                                      (MosPre in, ids/gm/gds out) — the
  //                                      transcendental work the table
  //                                      replaces; their ratio is
  //                                      device_table_speedup, floored at
  //                                      3x by bench/compare_baseline.py.
  //   abl_mos_assemble_{analytic,table}  the full MnaAssembler::assemble()
  //                                      on the same circuit — device model
  //                                      plus the path-independent stamp
  //                                      writes and KCL gathers, so the
  //                                      ratio is diluted by design.
  double mos_eval_table_ms = 0.0;
  double mos_eval_analytic_ms = 0.0;
  double mos_assemble_table_ms = 0.0;
  double mos_assemble_analytic_ms = 0.0;
  {
    sim::Circuit devckt;
    const int vdd = devckt.new_node("vdd");
    const int na = devckt.new_node("a");
    const int nb = devckt.new_node("b");
    const int nc = devckt.new_node("c");
    devckt.add_vsource(vdd, sim::Circuit::ground, 1.8);
    devckt.add_resistor(na, sim::Circuit::ground, 10e3);
    devckt.add_resistor(nb, sim::Circuit::ground, 10e3);
    devckt.add_resistor(nc, vdd, 10e3);
    const auto& pdk = ckt::pdk_180nm();
    const int rails[] = {sim::Circuit::ground, vdd, na, nb, nc};
    util::Rng dev_rng(41);
    for (int i = 0; i < 512; ++i) {
      const bool nmos = (i % 2) == 0;
      const int d = rails[(i + 1) % 5];
      const int g = rails[(i * 3 + 2) % 5];
      const int s = nmos ? sim::Circuit::ground : vdd;
      const double w = 2e-6 + 18e-6 * dev_rng.uniform();
      const double l = 0.18e-6 + 0.8e-6 * dev_rng.uniform();
      devckt.add_mosfet(d, g, s, w, l, nmos ? pdk.nmos : pdk.pmos);
    }
    la::Vector xdev(devckt.mna_size(), 0.0);
    xdev[static_cast<std::size_t>(vdd) - 1] = 1.8;
    xdev[static_cast<std::size_t>(na) - 1] = 0.45;   // weak inversion-ish
    xdev[static_cast<std::size_t>(nb) - 1] = 0.95;   // strong inversion
    xdev[static_cast<std::size_t>(nc) - 1] = 1.35;   // triode/reverse mix
    la::Matrix jac_dev;
    la::Vector res_dev;
    sim::MnaAssembler analytic_asm(
        devckt, sim::MnaOptions{1e-12, 300.0, sim::MnaSolver::dense,
                                sim::DeviceEval::analytic});
    sim::MnaAssembler table_asm(
        devckt, sim::MnaOptions{1e-12, 300.0, sim::MnaSolver::dense,
                                sim::DeviceEval::table});
    // (a) SoA device-model batch: precomputed MosPre / table pointers /
    // terminal biases in, ids/gm/gds out.
    std::vector<sim::MosPre> pres;
    std::vector<const sim::DeviceTable*> tabs;
    std::vector<std::shared_ptr<const sim::DeviceTable>> tab_refs;
    std::vector<double> vgs_b, vds_b;
    auto at = [&](int node) {
      return node == 0 ? 0.0 : xdev[static_cast<std::size_t>(node) - 1];
    };
    for (const auto& m : devckt.mosfets()) {
      pres.push_back(sim::mos_precompute(m.model, m.w, m.l, 300.0));
      tab_refs.push_back(
          sim::device_table_for(m.model.subthreshold_n, 300.0));
      tabs.push_back(tab_refs.back().get());
      vgs_b.push_back(at(m.g) - at(m.s));
      vds_b.push_back(at(m.d) - at(m.s));
    }
    const std::size_t n_dev = pres.size();
    auto eval_analytic = [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < n_dev; ++i) {
        const auto op = sim::eval_mosfet_pre(pres[i], vgs_b[i], vds_b[i]);
        acc += op.ids + op.gm + op.gds;
      }
      sink(acc);
    };
    auto eval_table = [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < n_dev; ++i) {
        const auto op =
            sim::eval_mosfet_table(*tabs[i], pres[i], vgs_b[i], vds_b[i]);
        acc += op.ids + op.gm + op.gds;
      }
      sink(acc);
    };
    std::tie(mos_eval_analytic_ms, mos_eval_table_ms) = bench_ab(
        "abl_mos_eval_analytic", eval_analytic, "abl_mos_eval_table",
        eval_table);
    std::cout << "  -> device table speedup: "
              << mos_eval_analytic_ms / mos_eval_table_ms << "x (512 devices)\n";

    // (b) Full assembly on the same circuit.
    std::tie(mos_assemble_analytic_ms, mos_assemble_table_ms) = bench_ab(
        "abl_mos_assemble_analytic",
        [&] {
          analytic_asm.assemble(xdev, jac_dev, res_dev);
          sink(res_dev[0]);
        },
        "abl_mos_assemble_table",
        [&] {
          table_asm.assemble(xdev, jac_dev, res_dev);
          sink(res_dev[0]);
        });
    std::cout << "  -> assembled speedup: "
              << mos_assemble_analytic_ms / mos_assemble_table_ms << "x\n";
  }

  // Netlist front-end (abl_netlist): one-time deck parse latency and the
  // per-candidate re-elaboration cost the sizing loop pays on top of each
  // simulation (compare abl_netlist_eval against dc_opamp2_eval above).
  double netlist_elab_ms = 0.0;
  {
    const std::string path =
        std::string(KATO_SOURCE_DIR) + "/circuits/netlists/opamp2.cir";
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    bench("abl_netlist_parse", [&] {
      sink(static_cast<double>(
          net::parse_netlist(text, "opamp2.cir").cards.size()));
    });
    ckt::NetlistCircuit circuit(net::parse_netlist(text, "opamp2.cir"),
                                ckt::pdk_180nm());
    const auto x = circuit.expert_design();
    netlist_elab_ms = bench("abl_netlist_elaborate", [&] {
      sink(static_cast<double>(circuit.elaborate(x).circuit.mna_size()));
    });
    bench("abl_netlist_eval", [&] {
      const auto m = circuit.evaluate(x);
      sink(m ? (*m)[0] : 0.0);
    });
  }

  // Corner/MC fan-out (abl_corner): one aggregated candidate on the
  // 3-corner x 8-sample opamp2 variant — 24 elaborate+DC+AC sims plus the
  // quantile/worst aggregation, the per-candidate cost robust decks pay
  // (compare against abl_netlist_eval for the x24 overhead).
  double corner_eval_ms = 0.0;
  {
    const std::string path =
        std::string(KATO_SOURCE_DIR) + "/circuits/netlists/opamp2_corners.cir";
    ckt::NetlistCircuit circuit(net::parse_netlist_file(path),
                                ckt::pdk_180nm());
    const auto x = circuit.expert_design();
    corner_eval_ms = bench("abl_corner_eval", [&] {
      const auto m = circuit.evaluate(x);
      sink(m ? (*m)[0] : 0.0);
    });
    std::cout << "  -> conditions per candidate: "
              << circuit.n_corners() * circuit.n_mc_samples() << "\n";
  }

  // Transient engine (abl_tran): per-timestep cost of the Newton + LTE
  // machinery on the step-buffer workload, and the full DC -> TRAN ->
  // measures evaluation the transient sizing loop pays per candidate.
  double tran_step_ms = 0.0;
  double tran_eval_ms = 0.0;
  double tran_eval_analytic_ms = 0.0;
  double tran_eval_traced_ms = 0.0;
  double trace_overhead_ratio = 0.0;
  {
    const std::string path =
        std::string(KATO_SOURCE_DIR) + "/circuits/netlists/buffer_tran.cir";
    ckt::NetlistCircuit circuit(net::parse_netlist_file(path),
                                ckt::pdk_180nm());
    const auto x = circuit.expert_design();
    const auto elab = circuit.elaborate(x);
    constexpr std::size_t n_steps = 256;
    sim::TranOptions topts;
    topts.tstop = 3e-6;
    topts.tstep = topts.tstop / static_cast<double>(n_steps);
    topts.fixed_step = true;
    // Pre-solve the t=0 operating point so every benched iteration reuses
    // it (the buffer's waveform t=0 value equals its DC value) and the
    // per-timestep number tracks only the Newton + companion stepping.
    const auto op = sim::solve_dc(elab.circuit);
    const double tran_ms = bench("abl_tran_step", [&] {
      const auto res = sim::solve_tran(elab.circuit, topts, &op);
      sink(res.ok ? res.time.back() : 0.0);
    });
    tran_step_ms = tran_ms / static_cast<double>(n_steps);
    std::cout << "  -> per-timestep cost: " << tran_step_ms * 1e3 << " us\n";
    tran_eval_ms = bench("abl_tran_eval", [&] {
      const auto m = circuit.evaluate(x);
      sink(m ? (*m)[0] : 0.0);
    });
    // e2e device-path A/B on the transient workload (same binary) —
    // Amdahl-limited by LU + timestep control, so this ratio is modest by
    // design; the kernel ratio is device_table_speedup.
    circuit.set_device_eval(sim::DeviceEval::analytic);
    tran_eval_analytic_ms = bench("abl_tran_eval_analytic", [&] {
      const auto m = circuit.evaluate(x);
      sink(m ? (*m)[0] : 0.0);
    });
    circuit.set_device_eval(sim::DeviceEval::table);

    // Tracing overhead (abl_tran_eval_traced): the identical evaluation
    // with an active KATO_TRACE session — spans plus the per-timestep
    // ticker, the densest instrumentation in the stack.  One session spans
    // both arms, paused for the untraced one, so both share buffers and the
    // ratio isolates the capture cost.
    //
    // The arms alternate every single iteration (not in 40 ms bench_ab
    // windows): the effect being gated is a few percent, smaller than the
    // frequency drift between two windows, so only pairing at iteration
    // granularity makes the noise common-mode.  The gated ratio is the
    // median of per-block paired ratios — the median rejects the occasional
    // scheduler preemption that lands inside one block.  compare_baseline.py
    // gates the ratio at <= 1.05.
    obs::trace_begin("BENCH_trace_tran.json");
    obs::trace_pause();
    const auto run_untraced = [&] {
      const auto m = circuit.evaluate(x);
      sink(m ? (*m)[0] : 0.0);
    };
    const auto run_traced = [&] {
      obs::trace_resume();
      const auto m = circuit.evaluate(x);
      obs::trace_pause();
      sink(m ? (*m)[0] : 0.0);
    };
    run_untraced();
    run_traced();  // warm-up (excluded)
    using clock = std::chrono::steady_clock;
    constexpr int n_blocks = 12;
    constexpr int block_pairs = 48;
    std::vector<double> block_ratios;
    double best_untraced = 0.0;
    double best_traced = 0.0;
    for (int blk = 0; blk < n_blocks; ++blk) {
      double ms_untraced = 0.0;
      double ms_traced = 0.0;
      for (int i = 0; i < block_pairs; ++i) {
        const auto t0 = clock::now();
        run_untraced();
        const auto t1 = clock::now();
        run_traced();
        const auto t2 = clock::now();
        ms_untraced +=
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        ms_traced +=
            std::chrono::duration<double, std::milli>(t2 - t1).count();
      }
      const double per_untraced = ms_untraced / block_pairs;
      const double per_traced = ms_traced / block_pairs;
      if (best_untraced == 0.0 || per_untraced < best_untraced)
        best_untraced = per_untraced;
      if (best_traced == 0.0 || per_traced < best_traced)
        best_traced = per_traced;
      if (ms_untraced > 0.0) block_ratios.push_back(ms_traced / ms_untraced);
    }
    const std::size_t trace_events = obs::trace_end();
    tran_eval_traced_ms = best_traced;
    constexpr std::size_t ab_iters = n_blocks * block_pairs;
    g_results.push_back({"abl_tran_eval_untraced", best_untraced, ab_iters});
    g_results.push_back({"abl_tran_eval_traced", best_traced, ab_iters});
    std::sort(block_ratios.begin(), block_ratios.end());
    if (!block_ratios.empty()) {
      const std::size_t m = block_ratios.size() / 2;
      trace_overhead_ratio =
          block_ratios.size() % 2 != 0
              ? block_ratios[m]
              : 0.5 * (block_ratios[m - 1] + block_ratios[m]);
    }
    std::cout << "  " << "abl_tran_eval_untraced: " << best_untraced
              << " ms/iter (" << ab_iters << " iters, min of " << n_blocks
              << " paired blocks)\n";
    std::cout << "  " << "abl_tran_eval_traced: " << best_traced
              << " ms/iter (" << ab_iters << " iters, min of " << n_blocks
              << " paired blocks)\n";
    std::cout << "  -> trace overhead ratio: " << trace_overhead_ratio
              << " (median of " << block_ratios.size() << " paired blocks, "
              << trace_events << " events captured)\n";
  }

  // Run-journal overhead (abl_bo_journal): the same short seeded BO run
  // with a KATO_RUN_LOG session on vs off.  The journal emits per
  // iteration, not per evaluation, so the right denominator is a whole
  // optimization run — DOE, GP refits, proposals and the JSONL emission all
  // inside the timed region — on the transient deck, where evaluation cost
  // dominates the loop the way real SPICE workloads do (on the AC-only
  // opamp2 deck the run is so cheap that the ratio mostly measures the
  // filesystem's flush latency, not the journaling code).  Same estimator
  // as the trace A/B above: arms alternate per iteration so frequency
  // drift is common-mode, and the gated number is the median of per-block
  // paired ratios (journal_overhead_ratio <= 1.05 in compare_baseline.py).
  double bo_journal_off_ms = 0.0;
  double bo_journal_on_ms = 0.0;
  double journal_overhead_ratio = 0.0;
  {
    const std::string path =
        std::string(KATO_SOURCE_DIR) + "/circuits/netlists/buffer_tran.cir";
    ckt::NetlistCircuit circuit(net::parse_netlist_file(path),
                                ckt::pdk_180nm());
    bo::BoConfig cfg;
    cfg.n_init = 8;
    cfg.iterations = 2;
    cfg.batch = 2;
    cfg.nsga.population = 8;
    cfg.nsga.generations = 4;
    cfg.max_gp_points = 64;
    cfg.hyper_every = 2;
    cfg.gp_initial.iterations = 8;
    cfg.gp_refit.iterations = 4;
    const auto run_off = [&] {
      const auto r =
          bo::run_constrained(circuit, bo::ConstrainedMethod::kato, cfg, 7);
      sink(r.trace.back());
    };
    const auto run_on = [&] {
      // Session open/truncate and close are charged to the journaled arm:
      // a real KATO_RUN_LOG run pays them too.
      obs::journal_begin("BENCH_journal.jsonl");
      const auto r =
          bo::run_constrained(circuit, bo::ConstrainedMethod::kato, cfg, 7);
      obs::journal_end();
      sink(r.trace.back());
    };
    run_off();
    run_on();  // warm-up (excluded)
    using clock = std::chrono::steady_clock;
    constexpr int n_blocks = 8;
    constexpr int block_pairs = 4;
    std::vector<double> block_ratios;
    for (int blk = 0; blk < n_blocks; ++blk) {
      double ms_off = 0.0;
      double ms_on = 0.0;
      for (int i = 0; i < block_pairs; ++i) {
        const auto t0 = clock::now();
        run_off();
        const auto t1 = clock::now();
        run_on();
        const auto t2 = clock::now();
        ms_off += std::chrono::duration<double, std::milli>(t1 - t0).count();
        ms_on += std::chrono::duration<double, std::milli>(t2 - t1).count();
      }
      const double per_off = ms_off / block_pairs;
      const double per_on = ms_on / block_pairs;
      if (bo_journal_off_ms == 0.0 || per_off < bo_journal_off_ms)
        bo_journal_off_ms = per_off;
      if (bo_journal_on_ms == 0.0 || per_on < bo_journal_on_ms)
        bo_journal_on_ms = per_on;
      if (ms_off > 0.0) block_ratios.push_back(ms_on / ms_off);
    }
    constexpr std::size_t ab_iters = n_blocks * block_pairs;
    g_results.push_back({"abl_bo_journal_off", bo_journal_off_ms, ab_iters});
    g_results.push_back({"abl_bo_journal_on", bo_journal_on_ms, ab_iters});
    std::sort(block_ratios.begin(), block_ratios.end());
    if (!block_ratios.empty()) {
      const std::size_t m = block_ratios.size() / 2;
      journal_overhead_ratio =
          block_ratios.size() % 2 != 0
              ? block_ratios[m]
              : 0.5 * (block_ratios[m - 1] + block_ratios[m]);
    }
    std::cout << "  " << "abl_bo_journal_off: " << bo_journal_off_ms
              << " ms/run (" << ab_iters << " runs, min of " << n_blocks
              << " paired blocks)\n";
    std::cout << "  " << "abl_bo_journal_on: " << bo_journal_on_ms
              << " ms/run (" << ab_iters << " runs, min of " << n_blocks
              << " paired blocks)\n";
    std::cout << "  -> journal overhead ratio: " << journal_overhead_ratio
              << " (median of " << block_ratios.size()
              << " paired blocks)\n";
  }

  // Robustness-hook overhead (abl_eval_recovery): the fault-injection and
  // deadline checks sit inside the Newton and timestep loops, so their cost
  // when *idle* must be invisible.  One arm evaluates with everything
  // disarmed (the shipping default: every check is a single predicated
  // relaxed load); the other arm evaluates with a never-firing fault armed
  // on the transient Newton site and a far-future deadline armed, paying
  // the splitmix64 draw and amortized clock reads without ever triggering
  // recovery.  Same paired-iteration estimator as the trace A/B; the gated
  // number is recovery_off_overhead_ratio <= 1.05 in compare_baseline.py.
  double eval_recovery_off_ms = 0.0;
  double eval_recovery_armed_ms = 0.0;
  double recovery_off_overhead_ratio = 0.0;
  {
    const std::string path =
        std::string(KATO_SOURCE_DIR) + "/circuits/netlists/buffer_tran.cir";
    ckt::NetlistCircuit circuit(net::parse_netlist_file(path),
                                ckt::pdk_180nm());
    const auto x = circuit.expert_design();
    util::FaultSpec idle_fault;
    idle_fault.site = util::FaultSite::tran_nan_device;
    idle_fault.rate = 1e-15;  // draws are paid, the fault never fires
    idle_fault.seed = 1;
    const auto run_off = [&] {
      const auto m = circuit.evaluate(x);
      sink(m ? (*m)[0] : 0.0);
    };
    const auto run_armed = [&] {
      util::set_fault(idle_fault);
      util::set_eval_deadline_ms(600000);
      const auto m = circuit.evaluate(x);
      util::set_eval_deadline_ms(0);
      util::set_fault(std::nullopt);
      sink(m ? (*m)[0] : 0.0);
    };
    run_off();
    run_armed();  // warm-up (excluded)
    using clock = std::chrono::steady_clock;
    constexpr int n_blocks = 12;
    constexpr int block_pairs = 48;
    std::vector<double> block_ratios;
    for (int blk = 0; blk < n_blocks; ++blk) {
      double ms_off = 0.0;
      double ms_armed = 0.0;
      for (int i = 0; i < block_pairs; ++i) {
        const auto t0 = clock::now();
        run_off();
        const auto t1 = clock::now();
        run_armed();
        const auto t2 = clock::now();
        ms_off += std::chrono::duration<double, std::milli>(t1 - t0).count();
        ms_armed += std::chrono::duration<double, std::milli>(t2 - t1).count();
      }
      const double per_off = ms_off / block_pairs;
      const double per_armed = ms_armed / block_pairs;
      if (eval_recovery_off_ms == 0.0 || per_off < eval_recovery_off_ms)
        eval_recovery_off_ms = per_off;
      if (eval_recovery_armed_ms == 0.0 || per_armed < eval_recovery_armed_ms)
        eval_recovery_armed_ms = per_armed;
      if (ms_off > 0.0) block_ratios.push_back(ms_armed / ms_off);
    }
    constexpr std::size_t ab_iters = n_blocks * block_pairs;
    g_results.push_back(
        {"abl_eval_recovery_off", eval_recovery_off_ms, ab_iters});
    g_results.push_back(
        {"abl_eval_recovery_armed", eval_recovery_armed_ms, ab_iters});
    std::sort(block_ratios.begin(), block_ratios.end());
    if (!block_ratios.empty()) {
      const std::size_t m = block_ratios.size() / 2;
      recovery_off_overhead_ratio =
          block_ratios.size() % 2 != 0
              ? block_ratios[m]
              : 0.5 * (block_ratios[m - 1] + block_ratios[m]);
    }
    std::cout << "  " << "abl_eval_recovery_off: " << eval_recovery_off_ms
              << " ms/iter (" << ab_iters << " iters, min of " << n_blocks
              << " paired blocks)\n";
    std::cout << "  " << "abl_eval_recovery_armed: " << eval_recovery_armed_ms
              << " ms/iter (" << ab_iters << " iters, min of " << n_blocks
              << " paired blocks)\n";
    std::cout << "  -> recovery-hook idle overhead ratio: "
              << recovery_off_overhead_ratio << " (median of "
              << block_ratios.size() << " paired blocks)\n";
  }

  // Sparse MNA solver (abl_sparse): on the ~150-node ladder deck, compare
  // (a) the raw linear-solve kernel — dense in-place LU vs sparse numeric
  // refactorization with the recorded pivot sequence — and (b) the full
  // candidate's DC + transient analyses on both solve paths (the solver
  // request fields).
  double sparse_lu_ms = 0.0;
  double sparse_lu_dense_ms = 0.0;
  double sparse_tran_ms = 0.0;
  double sparse_tran_dense_ms = 0.0;
  double eval_batch_speedup = 0.0;
  {
    const std::string path =
        std::string(KATO_SOURCE_DIR) + "/circuits/netlists/ladder.cir";
    ckt::NetlistCircuit circuit(net::parse_netlist_file(path),
                                ckt::pdk_180nm());
    const auto x = circuit.expert_design();
    const auto elab = circuit.elaborate(x);
    const std::size_t size = elab.circuit.mna_size();

    // (a) Linear-solve kernel on the DC Jacobian at the operating point.
    const auto op = sim::solve_dc(elab.circuit);
    la::Vector xop(size, 0.0);
    for (std::size_t i = 0; i + 1 < elab.circuit.n_nodes(); ++i)
      xop[i] = op.node_voltage[i + 1];
    for (std::size_t k = 0; k < elab.circuit.vsources().size(); ++k)
      xop[elab.circuit.n_nodes() - 1 + k] = op.vsource_current[k];
    sim::MnaAssembler assembler(elab.circuit, sim::MnaOptions{});
    la::Matrix jac;
    la::Vector res;
    assembler.assemble(xop, jac, res);

    std::vector<la::Coord> coords;
    for (std::size_t r = 0; r < size; ++r)
      for (std::size_t c = 0; c < size; ++c)
        if (jac(r, c) != 0.0) coords.push_back({r, c});
    const la::SparsePattern pattern(size, coords);
    std::vector<double> vals(pattern.nnz());
    for (std::size_t s = 0; s < coords.size(); ++s)
      vals[pattern.slot(coords[s].r, coords[s].c)] = jac(coords[s].r, coords[s].c);
    la::SparseLu lu;
    lu.analyze(pattern);
    lu.factor(vals);  // pivot + record symbolic structure (excluded)
    la::Vector sol;
    sparse_lu_ms = bench("abl_sparse_lu", [&] {
      lu.factor(vals);  // in-place numeric refactorization
      lu.solve(res, sol);
      sink(sol[0]);
    });
    la::Matrix jac_ws;
    la::Vector res_ws;
    sparse_lu_dense_ms = bench("abl_sparse_lu_dense", [&] {
      jac_ws = jac;
      res_ws = res;
      la::lu_solve_into(jac_ws, res_ws, sol);
      sink(sol[0]);
    });
    std::cout << "  -> sparse lu speedup: " << sparse_lu_dense_ms / sparse_lu_ms
              << "x (nnz " << pattern.nnz() << " -> lu " << lu.lu_nnz()
              << ", n " << size << ")\n";

    // (b) The candidate's DC + transient analyses, sparse vs dense path.
    const auto tran_on = [&](sim::MnaSolver solver) {
      sim::DcOptions dc;
      dc.temp = elab.temperature;
      dc.solver = solver;
      const auto op0 = sim::solve_dc(elab.circuit, dc);
      sim::TranOptions topts;
      topts.tstep = elab.tran.tstep;
      topts.tstop = elab.tran.tstop;
      topts.fixed_step = elab.tran.fixed_step;
      topts.backward_euler = elab.tran.backward_euler;
      topts.temp = elab.temperature;
      topts.solver = solver;
      topts.initial_conditions = elab.tran.ics;
      const auto res = sim::solve_tran(elab.circuit, topts, &op0);
      sink(res.ok ? res.node_voltage.back()[1] : 0.0);
    };
    sparse_tran_ms = bench("abl_sparse_tran_eval",
                           [&] { tran_on(sim::MnaSolver::sparse); });
    sparse_tran_dense_ms = bench(
        "abl_sparse_tran_eval_dense",
        [&] { tran_on(sim::MnaSolver::dense); }, 600.0);
    std::cout << "  -> sparse tran eval speedup: "
              << sparse_tran_dense_ms / sparse_tran_ms << "x\n";

    // Batch evaluation: 8 deterministic candidates around the expert point,
    // serial loop at 1 thread vs evaluate_batch on the 4-thread pool.
    util::Rng cand_rng(31);
    std::vector<std::vector<double>> cands;
    for (int c = 0; c < 8; ++c) {
      auto cx = x;
      for (auto& v : cx)
        v = std::clamp(v + 0.1 * (cand_rng.uniform() - 0.5), 0.0, 1.0);
      cands.push_back(std::move(cx));
    }
    ThreadsEnv threads("1");
    const double batch_serial_ms = bench(
        "eval_batch_serial_q8",
        [&] {
          double acc = 0.0;
          for (const auto& cand : cands) {
            const auto m = circuit.evaluate(cand);
            acc += m ? (*m)[0] : 0.0;
          }
          sink(acc);
        },
        600.0);
    threads.set("4");
    const double batch_par_ms = bench(
        "eval_batch_threads4_q8",
        [&] {
          const auto ms = circuit.evaluate_batch(cands);
          sink(ms[0] ? (*ms[0])[0] : 0.0);
        },
        600.0);
    eval_batch_speedup = batch_serial_ms / batch_par_ms;
    std::cout << "  -> eval batch speedup (4 threads): " << eval_batch_speedup
              << "x\n";
  }

  // The same A/B on a built-in circuit: hand-written circuits take the base
  // SizingCircuit::evaluate_batch, so this ratio drops to ~1x if that base
  // ever falls back to a serial loop.
  double eval_batch_builtin_speedup = 0.0;
  {
    const auto circuit = ckt::make_circuit("opamp2", "180nm");
    util::Rng cand_rng(32);
    std::vector<std::vector<double>> cands;
    for (int c = 0; c < 8; ++c) {
      auto cx = circuit->expert_design();
      for (auto& v : cx)
        v = std::clamp(v + 0.1 * (cand_rng.uniform() - 0.5), 0.0, 1.0);
      cands.push_back(std::move(cx));
    }
    ThreadsEnv threads("1");
    const double serial_ms = bench(
        "eval_batch_builtin_serial_q8",
        [&] {
          double acc = 0.0;
          for (const auto& cand : cands) {
            const auto m = circuit->evaluate(cand);
            acc += m ? (*m)[0] : 0.0;
          }
          sink(acc);
        },
        300.0);
    threads.set("4");
    const double par_ms = bench(
        "eval_batch_builtin_threads4_q8",
        [&] {
          const auto ms = circuit->evaluate_batch(cands);
          sink(ms[0] ? (*ms[0])[0] : 0.0);
        },
        300.0);
    eval_batch_builtin_speedup = serial_ms / par_ms;
    std::cout << "  -> built-in eval batch speedup (4 threads): "
              << eval_batch_builtin_speedup << "x\n";
  }

  // NSGA-II on an analytic problem (no surrogate cost).
  {
    auto fn = [](const std::vector<double>& x) {
      double g = 0.0;
      for (std::size_t i = 1; i < x.size(); ++i) g += x[i];
      return std::vector<double>{x[0], 1.0 + g - std::sqrt(x[0] / (1.0 + g))};
    };
    moo::Nsga2Options opts;
    opts.population = 32;
    opts.generations = 20;
    bench("nsga2_p32_g20", [&] {
      util::Rng rng(7);
      sink(static_cast<double>(moo::nsga2(fn, 8, 2, opts, rng).x.size()));
    });
  }

  if (json) {
    std::ofstream out("BENCH_micro_perf.json");
    out << "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < g_results.size(); ++i) {
      const auto& r = g_results[i];
      out << "    {\"name\": \"" << r.name << "\", \"ms_per_iter\": "
          << r.ms_per_iter << ", \"iterations\": " << r.iterations << "}"
          << (i + 1 < g_results.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"gp_predict_batch_speedup\": "
        << (batch_ms > 0.0 ? loop_ms / batch_ms : 0.0) << ",\n";
    out << "  \"kat_source_grad_batch_ms\": " << kat_batch_ms << ",\n";
    out << "  \"kat_source_grad_speedup\": "
        << (kat_batch_ms > 0.0 ? kat_loop_ms / kat_batch_ms : 0.0) << ",\n";
    out << "  \"kat_fit_init_ms\": " << kat_init_ms << ",\n";
    out << "  \"kat_fit_refit_ms\": " << kat_refit_ms << ",\n";
    out << "  \"gp_fit_fused_ms\": " << fit_ws_ms << ",\n";
    out << "  \"gp_fit_parallel_speedup\": "
        << (multi_par_ms > 0.0 ? multi_serial_ms / multi_par_ms : 0.0) << ",\n";
    out << "  \"abl_netlist_elaborate_ms\": " << netlist_elab_ms << ",\n";
    out << "  \"abl_corner_eval_ms\": " << corner_eval_ms << ",\n";
    out << "  \"abl_tran_step_ms\": " << tran_step_ms << ",\n";
    out << "  \"abl_tran_eval_ms\": " << tran_eval_ms << ",\n";
    out << "  \"abl_tran_eval_analytic_ms\": " << tran_eval_analytic_ms
        << ",\n";
    out << "  \"abl_tran_eval_traced_ms\": " << tran_eval_traced_ms << ",\n";
    out << "  \"trace_overhead_ratio\": " << trace_overhead_ratio << ",\n";
    out << "  \"abl_bo_journal_off_ms\": " << bo_journal_off_ms << ",\n";
    out << "  \"abl_bo_journal_on_ms\": " << bo_journal_on_ms << ",\n";
    out << "  \"journal_overhead_ratio\": " << journal_overhead_ratio
        << ",\n";
    out << "  \"abl_eval_recovery_off_ms\": " << eval_recovery_off_ms
        << ",\n";
    out << "  \"abl_eval_recovery_armed_ms\": " << eval_recovery_armed_ms
        << ",\n";
    out << "  \"recovery_off_overhead_ratio\": " << recovery_off_overhead_ratio
        << ",\n";
    out << "  \"abl_sparse_lu_ms\": " << sparse_lu_ms << ",\n";
    out << "  \"abl_sparse_lu_dense_ms\": " << sparse_lu_dense_ms << ",\n";
    out << "  \"sparse_lu_speedup\": "
        << (sparse_lu_ms > 0.0 ? sparse_lu_dense_ms / sparse_lu_ms : 0.0)
        << ",\n";
    out << "  \"abl_sparse_tran_eval_ms\": " << sparse_tran_ms << ",\n";
    out << "  \"abl_sparse_tran_eval_dense_ms\": " << sparse_tran_dense_ms
        << ",\n";
    out << "  \"sparse_tran_eval_speedup\": "
        << (sparse_tran_ms > 0.0 ? sparse_tran_dense_ms / sparse_tran_ms : 0.0)
        << ",\n";
    out << "  \"eval_batch_speedup\": " << eval_batch_speedup << ",\n";
    out << "  \"eval_batch_builtin_speedup\": " << eval_batch_builtin_speedup
        << ",\n";
    out << "  \"abl_mos_eval_analytic_ms\": " << mos_eval_analytic_ms << ",\n";
    out << "  \"abl_mos_eval_table_ms\": " << mos_eval_table_ms << ",\n";
    out << "  \"device_table_speedup\": "
        << (mos_eval_table_ms > 0.0 ? mos_eval_analytic_ms / mos_eval_table_ms
                                    : 0.0)
        << ",\n";
    out << "  \"abl_mos_assemble_analytic_ms\": " << mos_assemble_analytic_ms
        << ",\n";
    out << "  \"abl_mos_assemble_table_ms\": " << mos_assemble_table_ms
        << ",\n";
    out << "  \"device_table_assemble_speedup\": "
        << (mos_assemble_table_ms > 0.0
                ? mos_assemble_analytic_ms / mos_assemble_table_ms
                : 0.0)
        << ",\n";
    out << "  \"dc_opamp2_eval_ms\": " << dc_opamp2_ms << ",\n";
    out << "  \"dc_opamp2_eval_analytic_ms\": " << dc_opamp2_analytic_ms
        << ",\n";
    out << "  \"kato_threads\": " << util::thread_count() << ",\n";
    // The dense kernels' build (linalg/isa.hpp), so ledgers from different
    // machines can be told apart.
    out << "  \"la_isa\": \"" << la::isa_name(la::active_isa()) << "\",\n";
    // Lets the baseline comparator skip thread-scaling speedup fields on
    // 1-core runners, where they measure the machine, not the code.
    out << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << "\n";
    out << "}\n";
    std::cout << "wrote BENCH_micro_perf.json\n";
  }
  return 0;
}
