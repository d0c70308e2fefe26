// PVT-corner and Monte Carlo mismatch workloads: .corner/.mc parsing and
// validation diagnostics, golden hand-computed worst-over-corners /
// quantile-over-MC aggregation, seeded MC reproducibility, bit-identity of
// the evaluate_batch fan-out across KATO_THREADS, and evaluate_detailed
// naming the failing corner/sample.  The CornerBo suite (slow label) runs
// the corner-annotated opamp2 deck end-to-end through seeded BO on both
// PDK nodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "circuits/factory.hpp"
#include "core/experiment.hpp"
#include "netlist/netlist_circuit.hpp"
#include "util/rng.hpp"

namespace ckt = kato::ckt;
namespace net = kato::net;
namespace bo = kato::bo;
namespace core = kato::core;

#ifndef KATO_SOURCE_DIR
#define KATO_SOURCE_DIR "."
#endif

namespace {

std::string deck_path(const std::string& name) {
  return std::string(KATO_SOURCE_DIR) + "/circuits/netlists/" + name;
}

ckt::NetlistCircuit load(const std::string& text,
                         const std::string& node = "180nm") {
  return ckt::NetlistCircuit(net::parse_netlist(text, "test.cir"),
                             ckt::pdk_by_name(node));
}

void expect_diag(const std::string& text, int line, const std::string& needle) {
  try {
    load(text);
    FAIL() << "deck accepted; expected diagnostic containing '" << needle << "'";
  } catch (const net::NetlistError& err) {
    EXPECT_EQ(err.line(), line) << err.what();
    EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
        << err.what();
  }
}

/// Resistor divider with three corners: vdd spread plus an rtop override.
/// Linear circuit, so every per-condition metric is a closed-form divider.
const char* kDividerCorners =
    "vs in 0 {vdd}\n"
    ".param rtop = 1k\n"
    ".var rbot 1k 2k lin\n"
    "r1 in out {rtop}\n"
    "r2 out 0 {rbot}\n"
    ".spec objective Vout V = vdc(out)\n"
    ".spec Vcap V <= 10 = vdc(out)\n"
    ".spec Vfloor V >= 0.1 = vdc(out)\n"
    ".corner tt\n"
    ".corner lo vdd_scale=0.9\n"
    ".corner hi vdd_scale=1.1 rtop=2k\n";

}  // namespace

// ---------------------------------------------------------------------------
// Parsing and load-time validation.

TEST(CornerParse, CardsPopulateDeckAndCircuit) {
  const auto c = load(kDividerCorners);
  ASSERT_EQ(c.n_corners(), 3u);
  EXPECT_EQ(c.corner_name(0), "tt");
  EXPECT_EQ(c.corner_name(1), "lo");
  EXPECT_EQ(c.corner_name(2), "hi");
  EXPECT_EQ(c.n_mc_samples(), 1u);
  EXPECT_DOUBLE_EQ(c.mc_quantile(), 1.0);
}

TEST(CornerParse, NoCornerCardsMeansSingleNominal) {
  const auto c = load(
      "vs in 0 {vdd}\n"
      ".var rr 500 2000 lin\n"
      "r1 in out 1k\n"
      "r2 out 0 {rr}\n"
      ".spec objective Vout V = vdc(out)\n");
  EXPECT_EQ(c.n_corners(), 1u);
  EXPECT_EQ(c.corner_name(0), "nominal");
  EXPECT_EQ(c.n_mc_samples(), 1u);
}

TEST(CornerDiag, DuplicateCornerName) {
  expect_diag(
      "vs in 0 1.0\n"
      ".var rr 500 2000 lin\n"
      "r1 in out 1k\n"
      "r2 out 0 {rr}\n"
      ".spec objective Vout V = vdc(out)\n"
      ".corner tt\n"
      ".corner tt temp=348\n",
      7, "duplicate corner 'tt'");
}

TEST(CornerDiag, UnknownOverrideKey) {
  expect_diag(
      "vs in 0 1.0\n"
      ".var rr 500 2000 lin\n"
      "r1 in out 1k\n"
      "r2 out 0 {rr}\n"
      ".spec objective Vout V = vdc(out)\n"
      ".corner ss rbogus=2k\n",
      6, "overrides unknown parameter 'rbogus'");
}

TEST(CornerDiag, TemperatureBelowDeviceTableFloor) {
  for (const char* temp : {"0.0001", "1e-30", "0"}) {
    expect_diag(std::string("vs in 0 1.0\n"
                            ".var rr 500 2000 lin\n"
                            "r1 in out 1k\n"
                            "r2 out 0 {rr}\n"
                            ".spec objective Vout V = vdc(out)\n"
                            ".corner ss temp=") +
                    temp + "\n",
                6, "temp must be a finite Kelvin temperature >=");
  }
}

TEST(CornerDiag, BadMcCountAndKeys) {
  const char* head =
      "vs in 0 1.0\n"
      ".var rr 500 2000 lin\n"
      "r1 in out 1k\n"
      "r2 out 0 {rr}\n"
      ".spec objective Vout V = vdc(out)\n";
  expect_diag(std::string(head) + ".mc 0\n", 6,
              "sample count must be an integer in [1, 4096]");
  expect_diag(std::string(head) + ".mc 2.5\n", 6,
              "sample count must be an integer in [1, 4096]");
  expect_diag(std::string(head) + ".mc 8192\n", 6,
              "sample count must be an integer in [1, 4096]");
  expect_diag(std::string(head) + ".mc 4 quantile=0\n", 6,
              "quantile must be in (0, 1]");
  expect_diag(std::string(head) + ".mc 4 vth_sigma=-1m\n", 6,
              "vth_sigma must be >= 0");
  expect_diag(std::string(head) + ".mc 4 sigma=1m\n", 6, "unknown key 'sigma'");
  expect_diag(std::string(head) + ".mc 4\n.mc 4\n", 7, "duplicate .mc");
}

// ---------------------------------------------------------------------------
// Golden aggregation.

TEST(CornerAgg, WorstOverCornersGoldenDivider) {
  const auto c = load(kDividerCorners);
  const double u = 0.25;
  const double rbot = 1000.0 + u * 1000.0;
  // Per-corner closed forms (gmin perturbs at ~1e-9, checked loosely);
  // aggregation itself is checked bit-exactly against evaluate_single.
  const double vdd = 1.8;
  const double tt = vdd * rbot / (1000.0 + rbot);
  const double lo = 0.9 * vdd * rbot / (1000.0 + rbot);
  const double hi = 1.1 * vdd * rbot / (2000.0 + rbot);
  const auto m = c.evaluate({u});
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->size(), 3u);
  // Objective (minimized) and the <= spec take the max across corners; the
  // >= spec takes the min.
  EXPECT_NEAR((*m)[0], std::max({tt, lo, hi}), 1e-6);
  EXPECT_NEAR((*m)[1], std::max({tt, lo, hi}), 1e-6);
  EXPECT_NEAR((*m)[2], std::min({tt, lo, hi}), 1e-6);

  // Bit-exact: hand-aggregate the public per-condition evaluations.
  std::vector<std::vector<double>> per_corner;
  for (std::size_t k = 0; k < c.n_corners(); ++k) {
    const auto one = c.evaluate_single({u}, k, 0);
    ASSERT_TRUE(one.metrics.has_value()) << one.failure;
    per_corner.push_back(*one.metrics);
  }
  for (std::size_t mi = 0; mi < 3; ++mi) {
    double worst_max = per_corner[0][mi];
    double worst_min = per_corner[0][mi];
    for (const auto& pc : per_corner) {
      worst_max = std::max(worst_max, pc[mi]);
      worst_min = std::min(worst_min, pc[mi]);
    }
    const double expect = mi == 2 ? worst_min : worst_max;
    EXPECT_EQ((*m)[mi], expect) << "metric " << mi;
  }
}

TEST(CornerAgg, McQuantileGoldenHandAggregation) {
  // 3 corners x 8 samples on the shipped corner deck; quantile 0.875 with
  // K = 8 picks rank ceil(0.875*8) = 7, i.e. the second-worst sample per
  // corner, then worst across corners.  Hand-aggregate from the public
  // per-condition API and require bit-identity with evaluate().
  const auto c = ckt::NetlistCircuit::from_file(
      deck_path("opamp2_corners.cir"), ckt::pdk_180nm());
  ASSERT_EQ(c->n_corners(), 3u);
  ASSERT_EQ(c->n_mc_samples(), 8u);
  EXPECT_DOUBLE_EQ(c->mc_quantile(), 0.875);
  const auto x = c->expert_design();
  const auto m = c->evaluate(x);
  ASSERT_TRUE(m.has_value());

  const std::size_t n_metrics = m->size();
  const std::size_t kk = c->n_mc_samples();
  std::vector<std::vector<double>> conds;  // [corner*K + sample][metric]
  for (std::size_t corner = 0; corner < c->n_corners(); ++corner)
    for (std::size_t s = 0; s < kk; ++s) {
      const auto one = c->evaluate_single(x, corner, s);
      ASSERT_TRUE(one.metrics.has_value()) << one.failure;
      conds.push_back(*one.metrics);
    }

  // Metric directions: objective + Gain/PM/GBW are all >= specs except the
  // objective itself.
  const std::size_t rank = 7;  // ceil(0.875 * 8)
  for (std::size_t mi = 0; mi < n_metrics; ++mi) {
    const bool smaller_better = mi == 0;
    double worst = 0.0;
    for (std::size_t corner = 0; corner < c->n_corners(); ++corner) {
      std::vector<double> samples(kk);
      for (std::size_t s = 0; s < kk; ++s)
        samples[s] = conds[corner * kk + s][mi];
      std::sort(samples.begin(), samples.end());
      const double q = smaller_better ? samples[rank - 1] : samples[kk - rank];
      if (corner == 0)
        worst = q;
      else
        worst = smaller_better ? std::max(worst, q) : std::min(worst, q);
    }
    EXPECT_EQ((*m)[mi], worst) << "metric " << mi;
  }

  // Mismatch draws actually spread the samples: some pair of MC samples in
  // corner 0 must differ in the objective.
  bool spread = false;
  for (std::size_t s = 1; s < kk; ++s)
    spread = spread || conds[s][0] != conds[0][0];
  EXPECT_TRUE(spread);
}

TEST(CornerAgg, BufferTranCornerDeckEvaluatesOnBothNodes) {
  // Transient-measure robust deck: 3 corners x 4 mismatch samples of the
  // step buffer, default quantile (worst sample).
  for (const char* node : {"180nm", "40nm"}) {
    const auto c = ckt::NetlistCircuit::from_file(
        deck_path("buffer_tran_corners.cir"), ckt::pdk_by_name(node));
    ASSERT_EQ(c->n_corners(), 3u) << node;
    ASSERT_EQ(c->n_mc_samples(), 4u) << node;
    EXPECT_DOUBLE_EQ(c->mc_quantile(), 1.0) << node;
    const auto m = c->evaluate(c->expert_design());
    ASSERT_TRUE(m.has_value()) << node << ": "
        << c->evaluate_detailed(c->expert_design()).failure;
    EXPECT_GT((*m)[0], 0.0) << node;  // worst-case power is positive
  }
}

TEST(CornerAgg, SeededMcReproducibleAcrossRerunsAndInstances) {
  const auto c1 = ckt::NetlistCircuit::from_file(
      deck_path("opamp2_corners.cir"), ckt::pdk_180nm());
  const auto c2 = ckt::NetlistCircuit::from_file(
      deck_path("opamp2_corners.cir"), ckt::pdk_180nm());
  const auto x = c1->expert_design();
  const auto a = c1->evaluate(x);
  const auto b = c1->evaluate(x);   // rerun, same instance
  const auto c = c2->evaluate(x);   // fresh instance
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(c.has_value());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i], (*b)[i]) << "metric " << i;
    EXPECT_EQ((*a)[i], (*c)[i]) << "metric " << i;
  }
}

TEST(CornerAgg, BatchBitIdenticalAcrossThreadCounts) {
  const auto c = ckt::NetlistCircuit::from_file(
      deck_path("opamp2_corners.cir"), ckt::pdk_180nm());
  std::vector<std::vector<double>> xs;
  kato::util::Rng rng(17);
  for (int i = 0; i < 5; ++i) {
    std::vector<double> x(c->dim());
    for (auto& v : x) v = rng.uniform();
    xs.push_back(std::move(x));
  }
  const char* prev = std::getenv("KATO_THREADS");
  const std::string saved = prev ? prev : "";
  setenv("KATO_THREADS", "1", 1);
  const auto serial = c->evaluate_batch(xs);
  setenv("KATO_THREADS", "4", 1);
  const auto parallel = c->evaluate_batch(xs);
  if (prev)
    setenv("KATO_THREADS", saved.c_str(), 1);
  else
    unsetenv("KATO_THREADS");

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].has_value(), parallel[i].has_value()) << "slot " << i;
    if (!serial[i]) continue;
    for (std::size_t mi = 0; mi < serial[i]->size(); ++mi)
      EXPECT_EQ((*serial[i])[mi], (*parallel[i])[mi])
          << "slot " << i << " metric " << mi;
    // The batch path must also match the serial evaluate() aggregation.
    const auto direct = c->evaluate(xs[i]);
    ASSERT_TRUE(direct.has_value());
    for (std::size_t mi = 0; mi < serial[i]->size(); ++mi)
      EXPECT_EQ((*serial[i])[mi], (*direct)[mi]) << "slot " << i;
  }
}

TEST(CornerAgg, DetailedNamesFailingCornerAndSample) {
  // The 'dead' corner flips the supply negative, so isupply()'s delivery
  // guard rejects every candidate in that corner; the failure string must
  // name it.  MC is on, so the sample index is reported too.
  const auto c = load(
      ".param vsrc = vdd\n"
      "vs in 0 {vsrc}\n"
      ".var rr 500 2000 lin\n"
      "r1 in out 1k\n"
      "r2 out 0 {rr}\n"
      ".spec objective Isup uA = isupply(vs)*1e6\n"
      ".corner tt\n"
      ".corner dead vsrc=-1\n"
      ".mc 2 vth_sigma=0 beta_sigma=0\n");
  const auto out = c.evaluate_detailed({0.5});
  ASSERT_FALSE(out.metrics.has_value());
  EXPECT_NE(out.failure.find("corner 'dead'"), std::string::npos) << out.failure;
  EXPECT_NE(out.failure.find("mc sample 0"), std::string::npos) << out.failure;
  EXPECT_NE(out.failure.find("isupply"), std::string::npos) << out.failure;
}

TEST(CornerAgg, PlainDeckFailureStringIsUnprefixed) {
  // Without .corner/.mc cards the failure string keeps the pre-corner
  // format — no "corner ..." prefix.
  const auto c = load(
      "vs in 0 -1.0\n"
      ".var rr 500 2000 lin\n"
      "r1 in out 1k\n"
      "r2 out 0 {rr}\n"
      ".spec objective Isup uA = isupply(vs)*1e6\n");
  const auto out = c.evaluate_detailed({0.5});
  ASSERT_FALSE(out.metrics.has_value());
  EXPECT_EQ(out.failure.find("corner"), std::string::npos) << out.failure;
  EXPECT_NE(out.failure.find("isupply"), std::string::npos) << out.failure;
}

// ---------------------------------------------------------------------------
// End-to-end seeded BO on the corner deck (slow label).

TEST(CornerBo, EndToEndBothNodesReproducible) {
  for (const char* node : {"180nm", "40nm"}) {
    const auto c = ckt::make_circuit(
        "netlist:" + deck_path("opamp2_corners.cir"), node);
    bo::BoConfig cfg;
    cfg.n_init = 10;
    cfg.iterations = 2;
    cfg.batch = 2;
    cfg.nsga.population = 12;
    cfg.nsga.generations = 6;
    cfg.max_gp_points = 64;
    cfg.hyper_every = 2;
    cfg.gp_initial.iterations = 12;
    cfg.gp_refit.iterations = 5;
    const char* prev = std::getenv("KATO_THREADS");
    const std::string saved = prev ? prev : "";
    setenv("KATO_THREADS", "1", 1);
    const auto r1 = bo::run_constrained(*c, bo::ConstrainedMethod::kato, cfg, 5);
    setenv("KATO_THREADS", "4", 1);
    const auto r2 = bo::run_constrained(*c, bo::ConstrainedMethod::kato, cfg, 5);
    if (prev)
      setenv("KATO_THREADS", saved.c_str(), 1);
    else
      unsetenv("KATO_THREADS");
    ASSERT_EQ(r1.trace.size(), r2.trace.size()) << node;
    EXPECT_EQ(r1.trace.size(), cfg.n_init + cfg.batch * cfg.iterations);
    for (std::size_t i = 0; i < r1.trace.size(); ++i)
      EXPECT_DOUBLE_EQ(r1.trace[i], r2.trace[i]) << node << " sim " << i;
    ASSERT_EQ(r1.x_history.size(), r2.x_history.size()) << node;
    for (std::size_t i = 0; i < r1.x_history.size(); ++i)
      EXPECT_EQ(r1.x_history[i], r2.x_history[i]) << node << " sim " << i;
  }
}

TEST(CornerBo, CornerRobustTransferAcrossNodes) {
  // The fig6(h) scenario in miniature: source knowledge on the 180nm corner
  // deck feeds a KAT/STL run on the 40nm corner deck.
  const auto src = ckt::make_circuit(
      "netlist:" + deck_path("opamp2_corners.cir"), "180nm");
  const auto tgt = ckt::make_circuit(
      "netlist:" + deck_path("opamp2_corners.cir"), "40nm");
  bo::BoConfig cfg;
  cfg.n_init = 8;
  cfg.iterations = 2;
  cfg.batch = 2;
  cfg.nsga.population = 12;
  cfg.nsga.generations = 6;
  cfg.max_gp_points = 64;
  cfg.hyper_every = 2;
  cfg.gp_initial.iterations = 12;
  cfg.gp_refit.iterations = 5;
  cfg.kat.init_iterations = 40;
  cfg.kat.refit_iterations = 8;
  const auto cmp = core::run_transfer_comparison(*src, *tgt, 30, cfg, {1},
                                                 bo::KernelKind::rbf, 7);
  EXPECT_GT(cmp.source.x.rows(), 0u);
  ASSERT_EQ(cmp.with_transfer.runs.size(), 1u);
  const std::size_t expect_sims = cfg.n_init + cfg.batch * cfg.iterations;
  EXPECT_EQ(cmp.with_transfer.runs[0].trace.size(), expect_sims);
  EXPECT_EQ(cmp.without_transfer.runs[0].trace.size(), expect_sims);
}
