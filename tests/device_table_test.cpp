// Table-based device models (sim/device_table.hpp):
//
//   * bit-identity of the hoisted analytic path (MosPre + eval_mosfet_pre,
//     and the assembler's SoA stamp loop) against the pinned eval_mosfet
//     reference — this is the analytic path's "bit-identical to the
//     historical behavior" guarantee;
//   * table-vs-analytic accuracy: ids/gm/gds within 1e-4 relative over a
//     dense bias sweep on both PDK nodes at every deck temperature;
//   * the default device path and the process-wide table cache;
//   * end-to-end SizingCircuit::evaluate agreement between the two paths on
//     the shipped decks;
//   * seeded 5-iteration BO reproducibility per path (DeviceTableBo suite —
//     labelled slow in CTest).

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "bo/drivers.hpp"
#include "circuits/pdk.hpp"
#include "netlist/netlist_circuit.hpp"
#include "netlist/parser.hpp"
#include "sim/circuit.hpp"
#include "sim/device_table.hpp"
#include "sim/dc.hpp"
#include "sim/mna.hpp"
#include "sim/mosfet.hpp"
#include "sim/transient.hpp"

namespace sim = kato::sim;
namespace ckt = kato::ckt;
namespace net = kato::net;
namespace bo = kato::bo;
namespace la = kato::la;

#ifndef KATO_SOURCE_DIR
#define KATO_SOURCE_DIR "."
#endif

namespace {

std::string deck_path(const std::string& name) {
  return std::string(KATO_SOURCE_DIR) + "/circuits/netlists/" + name;
}

/// The model set the accuracy/bit-identity sweeps cover: both PDK nodes,
/// both polarities, plus MC-mismatch-style perturbed variants (vth0 shift,
/// kp scale) to make sure the table normalization really keeps those
/// outside the table.
std::vector<sim::MosModel> sweep_models() {
  std::vector<sim::MosModel> models{ckt::pdk_180nm().nmos,
                                    ckt::pdk_180nm().pmos,
                                    ckt::pdk_40nm().nmos,
                                    ckt::pdk_40nm().pmos};
  sim::MosModel shifted = ckt::pdk_180nm().nmos;
  shifted.vth0 += 0.032;
  shifted.kp *= 0.87;
  models.push_back(shifted);
  sim::MosModel shifted_p = ckt::pdk_40nm().pmos;
  shifted_p.vth0 -= 0.021;
  shifted_p.kp *= 1.13;
  models.push_back(shifted_p);
  return models;
}

// Every temperature the shipped decks simulate at: the .corner overrides of
// opamp2_corners/buffer_tran_corners (348 K, 273 K), the nominal 300 K, and
// the bandgap TC sweep grid.
const double k_deck_temps[] = {253.0, 273.0, 300.0, 323.0, 348.0, 373.0};

}  // namespace

// ---------------------------------------------------------------------------
// Routing: every request field defaults to the table path.

TEST(DeviceEvalDefault, RequestFieldsDefaultToTable) {
  EXPECT_EQ(sim::MnaOptions{}.device_eval, sim::DeviceEval::table);
  EXPECT_EQ(sim::DcOptions{}.device_eval, sim::DeviceEval::table);
  EXPECT_EQ(sim::TranOptions{}.device_eval, sim::DeviceEval::table);
  sim::Circuit c;
  c.add_resistor(c.new_node("a"), sim::Circuit::ground, 1e3);
  EXPECT_EQ(sim::MnaAssembler(c, sim::MnaOptions{}).device_eval(),
            sim::DeviceEval::table);
}

// ---------------------------------------------------------------------------
// Bit-identity of the hoisted analytic path: eval_mosfet_pre must reproduce
// the pinned eval_mosfet reference exactly (same bits), for every polarity,
// temperature, geometry and bias quadrant.  This is what makes
// DeviceEval::analytic equal to the pre-table behavior.

TEST(MosPreAnalytic, BitIdenticalToEvalMosfet) {
  for (const auto& m : sweep_models()) {
    for (double temp : {233.0, 273.0, 300.0, 348.0, 398.0}) {
      for (const auto& wl : {std::pair{1e-6, 0.18e-6}, std::pair{10e-6, 1e-6},
                             std::pair{50e-6, 2e-6}}) {
        const sim::MosPre p = sim::mos_precompute(m, wl.first, wl.second, temp);
        for (double vgs = -2.0; vgs <= 2.0; vgs += 0.0371) {
          for (double vds = -2.0; vds <= 2.0; vds += 0.0407) {
            const sim::MosOp ref =
                sim::eval_mosfet(m, wl.first, wl.second, vgs, vds, temp);
            const sim::MosOp got = sim::eval_mosfet_pre(p, vgs, vds);
            // EXPECT_EQ on doubles: exact bit agreement, not a tolerance.
            ASSERT_EQ(got.ids, ref.ids)
                << "vgs=" << vgs << " vds=" << vds << " T=" << temp;
            ASSERT_EQ(got.gm, ref.gm)
                << "vgs=" << vgs << " vds=" << vds << " T=" << temp;
            ASSERT_EQ(got.gds, ref.gds)
                << "vgs=" << vgs << " vds=" << vds << " T=" << temp;
            ASSERT_EQ(got.saturated, ref.saturated)
                << "vgs=" << vgs << " vds=" << vds << " T=" << temp;
          }
        }
      }
    }
  }
}

// The assembler's analytic SoA loop must stamp exactly what the historical
// per-device eval_mosfet loop stamped.  One device with s = ground keeps
// every accumulation order reproducible by hand, so the Jacobian cells and
// KCL rows can be pinned bitwise.
TEST(MosPreAnalytic, AssemblerStampsMatchReferenceBitwise) {
  for (bool nmos : {true, false}) {
    sim::Circuit c;
    const int vd = c.new_node("d");
    const int vg = c.new_node("g");
    c.add_vsource(vg, sim::Circuit::ground, nmos ? 0.9 : -0.9);
    c.add_resistor(vd, sim::Circuit::ground, 10e3);
    const sim::MosModel model =
        nmos ? ckt::pdk_180nm().nmos : ckt::pdk_180nm().pmos;
    c.add_mosfet(vd, vg, sim::Circuit::ground, 8e-6, 0.54e-6, model);

    const double gmin = 1e-9;
    const double temp = 330.0;
    sim::MnaAssembler asmblr(
        c, sim::MnaOptions{gmin, temp, sim::MnaSolver::dense,
                           sim::DeviceEval::analytic});
    la::Matrix jac;
    la::Vector res;
    // A few arbitrary (non-converged) iterates, covering forward and
    // reverse vds of both polarities.
    const double points[][2] = {
        {0.7, 1.1}, {0.2, -0.4}, {-0.9, 0.3}, {1.4, 0.05}, {-0.1, -1.2}};
    for (const auto& pt : points) {
      la::Vector x(c.mna_size(), 0.0);
      const std::size_t id = static_cast<std::size_t>(vd) - 1;
      const std::size_t ig = static_cast<std::size_t>(vg) - 1;
      x[id] = pt[0];
      x[ig] = pt[1];
      x[c.mna_size() - 1] = 3.3e-5;  // vsource branch current
      ASSERT_TRUE(asmblr.assemble(x, jac, res));

      const sim::MosOp op = sim::eval_mosfet(model, 8e-6, 0.54e-6, x[ig] - 0.0,
                                             x[id] - 0.0, temp);
      const double g_load = 1.0 / 10e3;
      // Jacobian cells in assembly order: gmin diagonal, resistor, mosfet.
      EXPECT_EQ(jac(id, id), gmin + g_load + op.gds);
      EXPECT_EQ(jac(id, ig), op.gm);
      // Residual row of the drain in assembly order: gmin, resistor, ids.
      EXPECT_EQ(res[id], gmin * x[id] + g_load * (x[id] - 0.0) + op.ids);
    }
  }
}

// ---------------------------------------------------------------------------
// Table accuracy vs the analytic reference.

TEST(DeviceTableAccuracy, IdsGmGdsWithin1e4OfAnalytic) {
  double worst = 0.0;
  for (const auto& m : sweep_models()) {
    for (double temp : k_deck_temps) {
      const auto table = sim::device_table_for(m.subthreshold_n, temp);
      const sim::MosPre p = sim::mos_precompute(m, 6e-6, 0.36e-6, temp);
      // Covers both PDK supply boxes (1.8 V / 1.1 V) with margin, all four
      // bias quadrants (forward/reverse vds, on/off).
      const double span = 2.0;
      for (double vgs = -span; vgs <= span; vgs += 0.0131) {
        for (double vds = -span; vds <= span; vds += 0.0173) {
          const sim::MosOp ref = sim::eval_mosfet_pre(p, vgs, vds);
          const sim::MosOp tab = sim::eval_mosfet_table(*table, p, vgs, vds);
          // Relative to the analytic value, floored at the model's own
          // conductance floor (1e-12): below that the device is off and
          // the comparison measures noise, not the table.
          const double e_ids =
              std::abs(tab.ids - ref.ids) / std::max(std::abs(ref.ids), 1e-12);
          const double e_gm =
              std::abs(tab.gm - ref.gm) / std::max(std::abs(ref.gm), 1e-12);
          const double e_gds =
              std::abs(tab.gds - ref.gds) / std::max(std::abs(ref.gds), 1e-12);
          const double e = std::max({e_ids, e_gm, e_gds});
          if (e > worst) worst = e;
          ASSERT_LE(e, 1e-4) << "model n=" << m.subthreshold_n
                             << " nmos=" << m.nmos << " T=" << temp
                             << " vgs=" << vgs << " vds=" << vds;
        }
      }
    }
  }
  // The bound should not be accidentally loose: the sweep must exercise
  // errors within two decades of the limit.
  EXPECT_GT(worst, 1e-8);
}

TEST(DeviceTableAccuracy, ExactAtKnotsAndInTails) {
  const auto t = sim::device_table_for(1.45, 300.0);
  const double nvt2 = t->nvt2();
  // Knots carry the exact analytic values (Hermite interpolates, never
  // smooths); the lookup reproduces them to rounding (the grid-index
  // arithmetic can land an ULP off the exact cell boundary).
  for (std::size_t i = 0; i < t->n_knots(); i += 97) {
    const double vov = t->vov_min() + t->step() * static_cast<double>(i);
    double veff = 0.0;
    double dveff = 0.0;
    t->veff_at(vov, veff, dveff);
    const double veff_ref = nvt2 * sim::mos_softplus(vov / nvt2);
    EXPECT_NEAR(veff, veff_ref, 1e-12 * std::max(1.0, std::abs(veff_ref)));
    EXPECT_NEAR(dveff, sim::mos_logistic(vov / nvt2), 1e-12);
  }
  // Outside the grid the exact analytic expressions take over.
  for (double vov : {-7.3, 5.9, 123.0, -55.0}) {
    double veff = 0.0;
    double dveff = 0.0;
    t->veff_at(vov, veff, dveff);
    EXPECT_EQ(veff, nvt2 * sim::mos_softplus(vov / nvt2));
    EXPECT_EQ(dveff, sim::mos_logistic(vov / nvt2));
  }
}

// ---------------------------------------------------------------------------
// Cache behavior: one build per (subthreshold_n, temp) key, shared
// process-wide.

TEST(DeviceTableCache, SharedPerKey) {
  const auto a = sim::device_table_for(1.45, 300.0);
  const auto b = sim::device_table_for(1.45, 300.0);
  EXPECT_EQ(a.get(), b.get());
  const auto c = sim::device_table_for(1.45, 348.0);
  EXPECT_NE(a.get(), c.get());
  const auto d = sim::device_table_for(1.35, 300.0);
  EXPECT_NE(a.get(), d.get());
  EXPECT_GE(sim::device_table_cache_size(), 3u);
  EXPECT_GT(a->n_knots(), 100u);
  EXPECT_LT(a->step(), a->nvt2());
}

TEST(DeviceTableCache, EvictsLeastRecentlyUsedPastTheCap) {
  // A `.temp` that follows a sizing variable makes a new key per
  // evaluation; the cache must stay bounded, keep recently used keys, and
  // never invalidate a table a caller still holds.
  const auto held = sim::device_table_for(1.45, 251.5);
  double held_veff = 0.0;
  double held_dveff = 0.0;
  held->veff_at(0.1, held_veff, held_dveff);
  std::size_t evictions = 0;
  for (int i = 0; i < 2000; ++i) {
    bool hit = true;
    bool evicted = false;
    (void)sim::device_table_for(1.45, 401.003 + 0.01 * i, &hit, &evicted);
    EXPECT_FALSE(hit) << i;
    evictions += evicted ? 1 : 0;
    ASSERT_LE(sim::device_table_cache_size(), sim::k_device_table_cache_cap);
    // Touched every round, so never the least recently used key.
    (void)sim::device_table_for(1.45, 252.5, &hit);
    EXPECT_TRUE(hit || i == 0) << i;
  }
  EXPECT_EQ(sim::device_table_cache_size(), sim::k_device_table_cache_cap);
  EXPECT_GE(evictions, 2000 - sim::k_device_table_cache_cap);

  bool hit = true;
  bool evicted = false;
  const auto rebuilt = sim::device_table_for(1.45, 251.5, &hit, &evicted);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(evicted);
  EXPECT_NE(rebuilt.get(), held.get());
  double veff = 0.0;
  double dveff = 0.0;
  held->veff_at(0.1, veff, dveff);
  EXPECT_EQ(veff, held_veff);
  EXPECT_EQ(dveff, held_dveff);
  rebuilt->veff_at(0.1, veff, dveff);
  EXPECT_EQ(veff, held_veff);
  EXPECT_EQ(dveff, held_dveff);
}

TEST(DeviceTableCache, CellCountIsCappedAtTheTemperatureFloor) {
  // Colder keys shrink n kT/q and grow the grid.  Below the floor the
  // constructor throws instead of exhausting memory (1e-4 K) or overflowing
  // the double -> size_t cell-count cast (1e-30 K).
  for (const double temp : {1e-4, 1e-30})
    EXPECT_THROW(sim::DeviceTable(1.35, temp), std::invalid_argument) << temp;
  const double floor = sim::device_table_min_temp(1.35);
  EXPECT_GT(floor, 10.0);
  EXPECT_LT(floor, 100.0);
  EXPECT_THROW(sim::DeviceTable(1.35, 0.99 * floor), std::invalid_argument);
  const sim::DeviceTable at_floor(1.35, floor);
  EXPECT_LE(at_floor.n_knots(), sim::k_device_table_max_cells + 1);
  // The shipped decks' temperatures (273-348 K) stay far inside the cap.
  EXPECT_LT(sim::DeviceTable(1.35, 273.0).n_knots(),
            sim::k_device_table_max_cells / 4);
}

// ---------------------------------------------------------------------------
// End-to-end: SizingCircuit::evaluate with the table path must agree with
// the analytic path within spec-level tolerance on the shipped decks.

namespace {

void expect_paths_agree(const std::string& deck, double rel_tol) {
  ckt::NetlistCircuit circuit(net::parse_netlist_file(deck_path(deck)),
                              ckt::pdk_180nm());
  const auto x = circuit.expert_design();
  circuit.set_device_eval(sim::DeviceEval::analytic);
  const auto analytic = circuit.evaluate(x);
  circuit.set_device_eval(sim::DeviceEval::table);
  const auto table = circuit.evaluate(x);
  ASSERT_TRUE(analytic.has_value()) << deck;
  ASSERT_TRUE(table.has_value()) << deck;
  ASSERT_EQ(analytic->size(), table->size());
  for (std::size_t i = 0; i < analytic->size(); ++i) {
    const double ref = (*analytic)[i];
    const double got = (*table)[i];
    EXPECT_LE(std::abs(got - ref), rel_tol * std::max(std::abs(ref), 1e-9))
        << deck << " metric " << i << ": analytic " << ref << " vs table "
        << got;
  }
}

}  // namespace

TEST(DeviceTableEndToEnd, Opamp2MetricsAgree) {
  expect_paths_agree("opamp2.cir", 1e-2);
}

TEST(DeviceTableEndToEnd, BufferTranMetricsAgree) {
  expect_paths_agree("buffer_tran.cir", 1e-2);
}

TEST(DeviceTableEndToEnd, LadderMetricsAgree) {
  expect_paths_agree("ladder.cir", 1e-2);
}

// A fresh circuit runs the table path, bit for bit the explicit request.
TEST(DeviceTableEndToEnd, DefaultPathIsExplicitTableRequest) {
  ckt::NetlistCircuit circuit(
      net::parse_netlist_file(deck_path("opamp2.cir")), ckt::pdk_180nm());
  const auto x = circuit.expert_design();
  EXPECT_EQ(circuit.device_eval(), sim::DeviceEval::table);
  const auto by_default = circuit.evaluate(x);
  circuit.set_device_eval(sim::DeviceEval::table);
  const auto requested = circuit.evaluate(x);
  ASSERT_TRUE(by_default.has_value());
  ASSERT_TRUE(requested.has_value());
  for (std::size_t i = 0; i < requested->size(); ++i)
    EXPECT_EQ((*by_default)[i], (*requested)[i]) << "metric " << i;
}

// ---------------------------------------------------------------------------
// Seeded BO reproducibility per device path (slow label): the optimizer
// trajectory is a deterministic function of (deck, seed, path).

namespace {

bo::RunResult run_bo(sim::DeviceEval eval) {
  ckt::NetlistCircuit circuit(
      net::parse_netlist_file(deck_path("opamp2.cir")), ckt::pdk_180nm());
  circuit.set_device_eval(eval);
  bo::BoConfig cfg;
  cfg.n_init = 10;
  cfg.iterations = 5;
  cfg.batch = 1;
  cfg.nsga.population = 10;
  cfg.nsga.generations = 5;
  cfg.max_gp_points = 64;
  cfg.hyper_every = 3;
  cfg.gp_initial.iterations = 10;
  cfg.gp_refit.iterations = 4;
  return bo::run_constrained(circuit, bo::ConstrainedMethod::kato, cfg, 11);
}

}  // namespace

TEST(DeviceTableBo, SeededFiveIterationRunReproduciblePerPath) {
  for (sim::DeviceEval eval :
       {sim::DeviceEval::analytic, sim::DeviceEval::table}) {
    const auto r1 = run_bo(eval);
    const auto r2 = run_bo(eval);
    ASSERT_EQ(r1.trace.size(), 15u);  // n_init + batch * iterations
    ASSERT_EQ(r1.trace.size(), r2.trace.size());
    for (std::size_t i = 0; i < r1.trace.size(); ++i)
      EXPECT_DOUBLE_EQ(r1.trace[i], r2.trace[i]) << "sim " << i;
    ASSERT_EQ(r1.x_history.size(), r2.x_history.size());
    for (std::size_t i = 0; i < r1.x_history.size(); ++i)
      EXPECT_EQ(r1.x_history[i], r2.x_history[i]) << "sim " << i;
  }
}
