// Transient engine: waveform evaluation, integrator golden accuracy against
// closed-form RC / oscillator solutions, observed convergence orders (trap
// ~2, backward Euler ~1), failure-reason plumbing (DcResult ->
// NetlistCircuit), netlist .tran/.ic/measure integration, and seeded
// transient-BO reproducibility on the shipped buffer_tran deck across
// KATO_THREADS settings (TranBo suite — labelled slow in CTest).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "bo/drivers.hpp"
#include "circuits/factory.hpp"
#include "netlist/netlist_circuit.hpp"
#include "sim/transient.hpp"
#include "util/rng.hpp"

namespace ckt = kato::ckt;
namespace net = kato::net;
namespace sim = kato::sim;
namespace bo = kato::bo;

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

/// RC to ground, charged to 1 V via an initial condition: v = e^{-t/tau}.
sim::Circuit rc_discharge(int& node, double r = 1e3, double c = 1e-6) {
  sim::Circuit ckt;
  node = ckt.new_node("a");
  ckt.add_resistor(node, sim::Circuit::ground, r);
  ckt.add_capacitor(node, sim::Circuit::ground, c);
  return ckt;
}

double rc_discharge_max_error(const sim::TranResult& res, int node,
                              double tau) {
  double max_err = 0.0;
  for (std::size_t i = 0; i < res.n_points(); ++i)
    max_err = std::max(max_err,
                       std::abs(res.v(i, node) - std::exp(-res.time[i] / tau)));
  return max_err;
}

/// RAII guard for the KATO_THREADS knob.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    if (value == nullptr)
      unsetenv("KATO_THREADS");
    else
      setenv("KATO_THREADS", value, 1);
  }
  ~ThreadsEnv() { unsetenv("KATO_THREADS"); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Waveform evaluation.

TEST(Waveform, PulseShape) {
  sim::Waveform w;
  w.kind = sim::Waveform::Kind::pulse;
  w.v1 = 0.0;
  w.v2 = 2.0;
  w.td = 1e-6;
  w.tr = 1e-7;
  w.tf = 2e-7;
  w.pw = 1e-6;
  w.period = 4e-6;
  EXPECT_DOUBLE_EQ(sim::waveform_value(w, -1.0, 0.0), 0.0);   // before td
  EXPECT_NEAR(sim::waveform_value(w, -1.0, 1.05e-6), 1.0, 1e-12);  // mid-rise
  EXPECT_DOUBLE_EQ(sim::waveform_value(w, -1.0, 1.5e-6), 2.0);     // plateau
  EXPECT_NEAR(sim::waveform_value(w, -1.0, 1e-6 + 1e-7 + 1e-6 + 1e-7), 1.0,
              1e-12);  // mid-fall
  EXPECT_DOUBLE_EQ(sim::waveform_value(w, -1.0, 3e-6), 0.0);  // back at v1
  // One period later: plateau again.
  EXPECT_DOUBLE_EQ(sim::waveform_value(w, -1.0, 5.5e-6), 2.0);
}

TEST(Waveform, PwlAndSineShape) {
  sim::Waveform pwl;
  pwl.kind = sim::Waveform::Kind::pwl;
  pwl.t = {1.0, 2.0, 4.0};
  pwl.v = {0.0, 1.0, -1.0};
  EXPECT_DOUBLE_EQ(sim::waveform_value(pwl, 9.0, 0.5), 0.0);  // clamped left
  EXPECT_DOUBLE_EQ(sim::waveform_value(pwl, 9.0, 1.5), 0.5);
  EXPECT_DOUBLE_EQ(sim::waveform_value(pwl, 9.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(sim::waveform_value(pwl, 9.0, 5.0), -1.0);  // clamped right

  sim::Waveform s;
  s.kind = sim::Waveform::Kind::sine;
  s.vo = 0.5;
  s.va = 2.0;
  s.freq = 1e3;
  s.td = 1e-3;
  EXPECT_DOUBLE_EQ(sim::waveform_value(s, 7.0, 0.0), 0.5);  // before td
  EXPECT_NEAR(sim::waveform_value(s, 7.0, 1e-3 + 0.25e-3), 2.5, 1e-9);
  // The quiet default stays at dc.
  EXPECT_DOUBLE_EQ(sim::waveform_value(sim::Waveform{}, 7.0, 123.0), 7.0);
}

TEST(Waveform, ValidationRejectsMalformed) {
  sim::Circuit ckt;
  const int a = ckt.new_node("a");
  sim::Waveform w;
  w.kind = sim::Waveform::Kind::pulse;
  w.v1 = 0.0;
  w.v2 = 1.0;
  w.tr = 0.0;  // instant edges are not representable
  w.tf = 1e-9;
  EXPECT_THROW(ckt.add_vsource(a, 0, 0.0, 0.0, w), std::invalid_argument);
  sim::Waveform pwl;
  pwl.kind = sim::Waveform::Kind::pwl;
  pwl.t = {0.0, 1.0, 0.5};
  pwl.v = {0.0, 1.0, 2.0};
  EXPECT_THROW(ckt.add_vsource(a, 0, 0.0, 0.0, pwl), std::invalid_argument);
}

TEST(Waveform, PwlBinarySearchMatchesLinearScanBitExactly) {
  // Dense PWL ramp with irregular spacing; the binary-search lookup must
  // select the same segment — and therefore the bit-identical interpolated
  // value — as the original linear scan, replicated here verbatim.
  sim::Waveform w;
  w.kind = sim::Waveform::Kind::pwl;
  kato::util::Rng rng(99);
  double t = 0.0;
  for (int i = 0; i < 512; ++i) {
    t += 1e-9 * (0.1 + rng.uniform());
    w.t.push_back(t);
    w.v.push_back(std::sin(0.37 * static_cast<double>(i)) + rng.uniform());
  }
  auto linear_scan = [&](double time) {
    if (time <= w.t.front()) return w.v.front();
    if (time >= w.t.back()) return w.v.back();
    std::size_t i = 1;
    while (w.t[i] < time) ++i;
    const double f = (time - w.t[i - 1]) / (w.t[i] - w.t[i - 1]);
    return w.v[i - 1] + f * (w.v[i] - w.v[i - 1]);
  };
  // Uniform queries across (and beyond) the span, plus every breakpoint
  // exactly and points just off each breakpoint.
  for (int q = -10; q < 2100; ++q) {
    const double time = static_cast<double>(q) * (t / 2000.0);
    EXPECT_EQ(sim::waveform_value(w, 0.0, time), linear_scan(time)) << time;
  }
  for (std::size_t i = 0; i < w.t.size(); ++i) {
    EXPECT_EQ(sim::waveform_value(w, 0.0, w.t[i]), linear_scan(w.t[i])) << i;
    const double eps = 1e-12;
    EXPECT_EQ(sim::waveform_value(w, 0.0, w.t[i] - eps),
              linear_scan(w.t[i] - eps));
    EXPECT_EQ(sim::waveform_value(w, 0.0, w.t[i] + eps),
              linear_scan(w.t[i] + eps));
  }
}

// ---------------------------------------------------------------------------
// tran_prop_delay contract: never negative, missing crossing = 2x window.

namespace {

/// Hand-built two-node result: index 1 = in, index 2 = out.
sim::TranResult two_node_result(const std::vector<double>& time,
                                const std::vector<double>& vin,
                                const std::vector<double>& vout) {
  sim::TranResult res;
  res.ok = true;
  res.time = time;
  for (std::size_t i = 0; i < time.size(); ++i) {
    kato::la::Vector v(3, 0.0);
    v[1] = vin[i];
    v[2] = vout[i];
    res.node_voltage.push_back(std::move(v));
  }
  return res;
}

}  // namespace

TEST(PropDelay, PositiveDelayUnchanged) {
  // in crosses 0.5 at t=1, out at t=3 -> delay 2.
  const auto res = two_node_result({0, 1, 2, 3, 4},
                                   {0, 0.5, 1, 1, 1},
                                   {0, 0, 0, 0.5, 1});
  EXPECT_DOUBLE_EQ(sim::tran_prop_delay(res, 1, 2), 2.0);
}

TEST(PropDelay, OutputLeadingInputClampsAtZero) {
  // out crosses 0.5 at t=1, in at t=3: the raw difference is -2 and used
  // to be returned as-is, poisoning worst-case aggregation.
  const auto res = two_node_result({0, 1, 2, 3, 4},
                                   {0, 0, 0, 0.5, 1},
                                   {0, 0.5, 1, 1, 1});
  EXPECT_DOUBLE_EQ(sim::tran_prop_delay(res, 1, 2), 0.0);
}

TEST(PropDelay, MissingCrossingReturnsTwiceWindowSentinel) {
  // Flat output never completes a swing -> sentinel 2 * window, finite yet
  // strictly larger than any genuine delay (always < window).
  const auto flat_out = two_node_result({0, 1, 2, 3, 4},
                                        {0, 0.5, 1, 1, 1},
                                        {0, 0, 0, 0, 0});
  EXPECT_DOUBLE_EQ(sim::tran_prop_delay(flat_out, 1, 2), 8.0);
  const auto flat_in = two_node_result({0, 1, 2, 3, 4},
                                       {0, 0, 0, 0, 0},
                                       {0, 0.5, 1, 1, 1});
  EXPECT_DOUBLE_EQ(sim::tran_prop_delay(flat_in, 1, 2), 8.0);
  // Degenerate results keep returning 0.
  EXPECT_DOUBLE_EQ(sim::tran_prop_delay(two_node_result({0}, {0}, {0}), 1, 2),
                   0.0);
}

// ---------------------------------------------------------------------------
// Integrator golden accuracy (closed-form solutions).

TEST(TranRc, DischargeMatchesAnalyticAdaptive) {
  int a = 0;
  const auto ckt = rc_discharge(a);
  sim::TranOptions opts;  // default adaptive trapezoidal tolerances
  opts.tstop = 5e-3;      // 5 tau
  opts.tstep = 5e-6;
  opts.initial_conditions = {{a, 1.0}};
  const auto res = sim::solve_tran(ckt, opts);
  ASSERT_TRUE(res.ok) << res.reason;
  EXPECT_DOUBLE_EQ(res.v(0, a), 1.0);  // IC honored
  EXPECT_LT(rc_discharge_max_error(res, a, 1e-3), 2e-4);
  EXPECT_NEAR(res.time.back(), 5e-3, 1e-12);
}

TEST(TranRc, StepResponseWithin1e6) {
  // Pulse-driven RC charge: after the (fast) edge the output follows
  // 1 - e^{-t'/tau}.  Trapezoidal, default tolerances, fixed tau/1000 grid:
  // the acceptance bar is 1e-6 absolute against the closed form.
  sim::Circuit ckt;
  const int in = ckt.new_node("in");
  const int out = ckt.new_node("out");
  sim::Waveform w;
  w.kind = sim::Waveform::Kind::pulse;
  w.v1 = 0.0;
  w.v2 = 1.0;
  w.td = 0.0;
  w.tr = 1e-9;  // edge much faster than tau = 1 ms
  w.tf = 1e-9;
  w.pw = 1.0;
  w.period = 0.0;
  ckt.add_vsource(in, sim::Circuit::ground, 0.0, 0.0, w);
  ckt.add_resistor(in, out, 1e3);
  ckt.add_capacitor(out, sim::Circuit::ground, 1e-6);

  sim::TranOptions opts;  // default trapezoidal tolerances
  opts.tstop = 5e-3;
  opts.tstep = 1e-6;  // tau / 1000
  opts.fixed_step = true;
  const auto res = sim::solve_tran(ckt, opts);
  ASSERT_TRUE(res.ok) << res.reason;
  double max_err = 0.0;
  for (std::size_t i = 0; i < res.n_points(); ++i) {
    const double t = res.time[i] - 1e-9;  // measure from the edge end
    if (t < 1e-6) continue;  // skip the sub-resolution edge interval
    const double exact = 1.0 - std::exp(-t / 1e-3);
    max_err = std::max(max_err, std::abs(res.v(i, out) - exact));
  }
  EXPECT_LT(max_err, 1e-6);
}

TEST(TranOrder, TrapezoidalIsSecondOrder) {
  int a = 0;
  const auto ckt = rc_discharge(a);
  auto run = [&](double h) {
    sim::TranOptions opts;
    opts.tstop = 5e-3;
    opts.tstep = h;
    opts.fixed_step = true;
    opts.initial_conditions = {{a, 1.0}};
    const auto res = sim::solve_tran(ckt, opts);
    EXPECT_TRUE(res.ok) << res.reason;
    return rc_discharge_max_error(res, a, 1e-3);
  };
  const double coarse = run(5e-6);
  const double fine = run(2.5e-6);
  // Halving the step divides the error by ~4.
  EXPECT_NEAR(coarse / fine, 4.0, 0.7);
}

TEST(TranOrder, BackwardEulerIsFirstOrder) {
  int a = 0;
  const auto ckt = rc_discharge(a);
  auto run = [&](double h) {
    sim::TranOptions opts;
    opts.tstop = 5e-3;
    opts.tstep = h;
    opts.fixed_step = true;
    opts.backward_euler = true;
    opts.initial_conditions = {{a, 1.0}};
    const auto res = sim::solve_tran(ckt, opts);
    EXPECT_TRUE(res.ok) << res.reason;
    return rc_discharge_max_error(res, a, 1e-3);
  };
  const double coarse = run(5e-6);
  const double fine = run(2.5e-6);
  // Halving the step divides the error by ~2 — and BE is far less accurate
  // than trapezoidal at the same step (see TrapezoidalIsSecondOrder).
  EXPECT_NEAR(coarse / fine, 2.0, 0.3);
  EXPECT_GT(fine, 1e-4);
}

TEST(TranOsc, TrapezoidalPreservesOscillation) {
  // Gyrator-coupled capacitor pair — the RLC-style second-order system:
  //   C va' = -g vb,  C vb' = g va  =>  va = cos(w t), w = g / C.
  // The A-stable trapezoidal rule preserves the amplitude; backward Euler
  // damps it artificially.
  sim::Circuit ckt;
  const int a = ckt.new_node("a");
  const int b = ckt.new_node("b");
  const double g = 1e-3;
  const double c = 1e-6;  // w = 1e3 rad/s
  ckt.add_capacitor(a, sim::Circuit::ground, c);
  ckt.add_capacitor(b, sim::Circuit::ground, c);
  ckt.add_vccs(a, sim::Circuit::ground, b, sim::Circuit::ground, g);
  ckt.add_vccs(b, sim::Circuit::ground, a, sim::Circuit::ground, -g);

  const double period = 2.0 * M_PI / (g / c);
  sim::TranOptions opts;
  opts.tstop = 3.0 * period;
  opts.tstep = period / 400.0;
  opts.fixed_step = true;
  opts.initial_conditions = {{a, 1.0}};
  const auto trap = sim::solve_tran(ckt, opts);
  ASSERT_TRUE(trap.ok) << trap.reason;
  double max_err = 0.0;
  for (std::size_t i = 0; i < trap.n_points(); ++i)
    max_err = std::max(max_err, std::abs(trap.v(i, a) -
                                         std::cos(1e3 * trap.time[i])));
  EXPECT_LT(max_err, 2e-3);  // amplitude and phase both held over 3 periods

  sim::TranOptions be = opts;
  be.backward_euler = true;
  const auto damped = sim::solve_tran(ckt, be);
  ASSERT_TRUE(damped.ok) << damped.reason;
  // BE's artificial damping shrinks the final-cycle amplitude noticeably;
  // the trapezoidal rule holds it (compare the peak after t = 2 periods).
  auto late_peak = [&](const sim::TranResult& r) {
    double peak = 0.0;
    for (std::size_t i = 0; i < r.n_points(); ++i)
      if (r.time[i] >= 2.0 * period)
        peak = std::max(peak, std::abs(r.v(i, a)));
    return peak;
  };
  EXPECT_LT(late_peak(damped), 0.95);
  EXPECT_GT(late_peak(trap), 0.999);
}

// ---------------------------------------------------------------------------
// Failure reasons: DcResult -> solve_tran -> NetlistCircuit.

TEST(TranReason, DcFailureCarriesReason) {
  sim::Circuit ckt;
  const int n = ckt.new_node("float");
  ckt.add_isource(sim::Circuit::ground, n, -1e-3);
  const auto op = sim::solve_dc(ckt);
  ASSERT_FALSE(op.converged);
  EXPECT_FALSE(op.reason.empty());
  EXPECT_NE(op.reason.find("Newton did not converge"), std::string::npos)
      << op.reason;
  EXPECT_NE(op.reason.find("gmin="), std::string::npos) << op.reason;

  sim::TranOptions opts;
  opts.tstop = 1e-6;
  const auto res = sim::solve_tran(ckt, opts);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.reason.find("t=0 operating point failed"), std::string::npos)
      << res.reason;
}

TEST(TranReason, BadOptionsCarryReason) {
  int a = 0;
  const auto ckt = rc_discharge(a);
  sim::TranOptions opts;  // tstop unset
  const auto res = sim::solve_tran(ckt, opts);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.reason.find("tstop"), std::string::npos);
}

TEST(TranReason, NetlistSurfacesDcFailure) {
  // 1 mA into 1 GOhm wants 1 MV: the DC sanity screen rejects it and the
  // reason must reach the NetlistCircuit caller.
  const auto c = load(
      "i1 0 a 1m\n"
      "r1 a 0 1e9\n"
      ".var u 1 2 lin\n"
      "r2 a 0 {u*1e9}\n"
      ".spec objective V V = vdc(a)\n");
  const auto outcome = c.evaluate_detailed({0.5});
  EXPECT_FALSE(outcome.metrics.has_value());
  EXPECT_NE(outcome.failure.find("DC operating point failed"),
            std::string::npos)
      << outcome.failure;
  // The sim::DcResult reason travels through (not a bare "failed").
  EXPECT_GT(outcome.failure.size(),
            std::string("DC operating point failed: ").size());
  EXPECT_FALSE(c.evaluate({0.5}).has_value());
}

// ---------------------------------------------------------------------------
// Netlist integration: .tran / .ic / waveforms / transient measures.

TEST(NetlistTran, RcDeckMatchesAnalytic) {
  // RC discharge expressed entirely as a deck: .ic starts the cap at 1 V,
  // the transient measures read the decay.
  const auto c = load(
      ".var rr 900 1100 lin\n"
      "r1 a 0 {rr}\n"
      "c1 a 0 1u\n"
      "r2 a 0 2k\n"
      ".tran 2u 2m fixed\n"
      ".ic v(a)=1\n"
      ".spec objective Vend V = vmax(a) - 1\n"
      ".spec Vmin V <= 1 = vmin(a)\n"
      ".spec Vhalf V <= 1 = value_at(a, 500u)\n");
  // u = 0.5 -> rr = 1000 || 2k = 666.67 ohm, tau = 666.67 us.
  const auto m = c.evaluate({0.5});
  ASSERT_TRUE(m.has_value());
  // vmax = initial 1 V; objective = vmax - 1 = 0.
  EXPECT_NEAR((*m)[0], 0.0, 1e-9);
  // vmin = final value: exp(-2m / 666.67u) = exp(-3).
  EXPECT_NEAR((*m)[1], std::exp(-3.0), 1e-4);
  // value_at samples the decay: exp(-500u / 666.67u) = exp(-0.75).
  EXPECT_NEAR((*m)[2], std::exp(-0.75), 1e-4);
}

TEST(NetlistTran, PulseMeasuresEvaluate) {
  const auto c = load(
      "vin in 0 pulse(0 1 10u 1u 1u 1 0)\n"
      "r1 in out 1k\n"
      "c1 out 0 1n\n"  // tau = 1 us
      ".var u 1 2 lin\n"
      "r2 out 0 {u*1e9}\n"
      ".tran 20n 40u\n"
      ".spec objective Delay s = prop_delay(in, out)\n"
      ".spec Slew V/s >= 1 = slew_rate(out)\n"
      ".spec Settle s <= 1 = settling_time(out, 0.01)\n"
      ".spec Peak V <= 2 = vmax(out)\n");
  const auto m = c.evaluate({0.5});
  ASSERT_TRUE(m.has_value());
  // Single-pole delay from 50% input to 50% output ~ tau ln 2.
  EXPECT_NEAR((*m)[0], 1e-6 * std::log(2.0), 0.15e-6);
  // RC exponential 10-90 slew ~ 0.8 / (2.2 tau), stretched a little by the
  // 1 us input ramp.
  EXPECT_NEAR((*m)[1], 0.8 / (2.2e-6), 0.1 * 0.8 / 2.2e-6);
  // 1% settling ~ td + edge + tau ln(100).
  EXPECT_NEAR((*m)[2], 11e-6 + 4.6e-6, 0.6e-6);
  EXPECT_NEAR((*m)[3], 1.0, 1e-3);
}

TEST(NetlistTran, OmittedDcUsesWaveformStart) {
  const auto c = load(
      "vin in 0 pulse(0.25 1 1u 10n 10n 1 0)\n"
      "r1 in out 1k\n"
      "r2 out 0 1k\n"
      ".var u 1 2 lin\n"
      "r3 out 0 {u*1e9}\n"
      ".tran 10n 2u\n"
      ".spec objective V V = vdc(out)\n");
  const auto m = c.evaluate({0.5});
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR((*m)[0], 0.125, 1e-6);  // divider of the waveform's t=0 value
}

// ---------------------------------------------------------------------------
// Diagnostics (file/line + supported sets).

namespace {

/// Expect construction to throw a NetlistError on `line` whose message
/// contains `needle`.
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

}  // namespace

TEST(NetlistTranDiag, TranMeasureWithoutTranLine) {
  expect_diag(
      "vs in 0 1.0\n"
      ".var u 1 2 lin\n"
      "r1 in out {u}\n"
      "c1 out 0 1p\n"
      ".spec objective S V/s = slew_rate(out)\n",
      5, "no '.tran");
}

TEST(NetlistTranDiag, BadPulseArityCarriesLine) {
  expect_diag(
      "vin in 0 pulse(0 1 1u)\n"
      ".var u 1 2 lin\n"
      "r1 in out {u}\n"
      "c1 out 0 1p\n"
      ".tran 1n 1u\n"
      ".spec objective V V = vmax(out)\n",
      1, "pulse needs 7 arguments");
}

TEST(NetlistTranDiag, BadIcNodeCarriesLine) {
  expect_diag(
      "vs in 0 1.0\n"
      ".var u 1 2 lin\n"
      "r1 in out {u}\n"
      "c1 out 0 1p\n"
      ".tran 1n 1u\n"
      ".ic v(nowhere)=1\n"
      ".spec objective V V = vmax(out)\n",
      6, "unknown node 'nowhere' in .ic");
}

TEST(NetlistTranDiag, IcWithoutTran) {
  expect_diag(
      "vs in 0 1.0\n"
      ".var u 1 2 lin\n"
      "r1 in out {u}\n"
      "c1 out 0 1p\n"
      ".ic v(out)=1\n"
      ".spec objective V V = vdc(out)\n",
      5, ".ic without a .tran");
}

TEST(NetlistTranDiag, BadTranRangeCarriesLine) {
  expect_diag(
      "vs in 0 1.0\n"
      ".var u 1 2 lin\n"
      "r1 in out {u}\n"
      "c1 out 0 1p\n"
      ".tran 2u 1u\n"
      ".spec objective V V = vmax(out)\n",
      5, "0 < tstep <= tstop");
}

TEST(NetlistTranDiag, UnknownTranOptionListsSupported) {
  expect_diag(
      "vs in 0 1.0\n"
      ".var u 1 2 lin\n"
      "r1 in 0 {u}\n"
      ".tran 1n 1u euler\n"
      ".spec objective V V = vdc(in)\n",
      4, "(supported: fixed, be)");
}

// ---------------------------------------------------------------------------
// Seeded transient BO (slow label): bit-identical across reruns and thread
// counts — the transient engine is pure double arithmetic, so the whole
// DC -> TRAN -> measures -> BO pipeline must reproduce exactly.

TEST(TranBo, SeededFiveIterationRunIsReproducible) {
  const auto c =
      ckt::make_circuit("netlist:" + deck_path("buffer_tran.cir"), "180nm");
  bo::BoConfig cfg;
  cfg.n_init = 12;
  cfg.iterations = 5;
  cfg.batch = 2;
  cfg.nsga.population = 12;
  cfg.nsga.generations = 6;
  cfg.max_gp_points = 96;
  cfg.hyper_every = 3;
  cfg.gp_initial.iterations = 15;
  cfg.gp_refit.iterations = 6;

  bo::RunResult r1, r2, r3;
  {
    ThreadsEnv env("1");
    r1 = bo::run_constrained(*c, bo::ConstrainedMethod::kato, cfg, 5);
    r2 = bo::run_constrained(*c, bo::ConstrainedMethod::kato, cfg, 5);
  }
  {
    ThreadsEnv env("4");
    r3 = bo::run_constrained(*c, bo::ConstrainedMethod::kato, cfg, 5);
  }
  ASSERT_EQ(r1.trace.size(), r2.trace.size());
  EXPECT_EQ(r1.trace.size(), cfg.n_init + cfg.batch * cfg.iterations);
  for (std::size_t i = 0; i < r1.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.trace[i], r2.trace[i]) << "sim " << i;
    EXPECT_DOUBLE_EQ(r1.trace[i], r3.trace[i]) << "sim " << i << " (threads)";
  }
  ASSERT_EQ(r1.x_history.size(), r3.x_history.size());
  for (std::size_t i = 0; i < r1.x_history.size(); ++i)
    EXPECT_EQ(r1.x_history[i], r3.x_history[i]) << "sim " << i;
}
