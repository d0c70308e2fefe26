// Netlist front-end: lexer/parser exactness, hierarchy flattening, the
// diagnostic contract (every rejection carries file/line), golden
// equivalence of the shipped opamp2 deck against the hand-written C++
// topology, and seeded BO reproducibility on a deck (NetlistBo suite —
// labelled slow in CTest).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

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

ckt::NetlistCircuit load(const std::string& text, const std::string& node = "180nm") {
  return ckt::NetlistCircuit(net::parse_netlist(text, "test.cir"),
                             ckt::pdk_by_name(node));
}

/// Expect construction to throw a NetlistError on `line` whose message
/// contains `needle`.
void expect_diag(const std::string& text, int line, const std::string& needle) {
  try {
    load(text);
    FAIL() << "deck accepted; expected diagnostic containing '" << needle << "'";
  } catch (const net::NetlistError& err) {
    EXPECT_EQ(err.line(), line) << err.what();
    EXPECT_EQ(err.file(), "test.cir") << err.what();
    EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
        << err.what();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Values and expressions.

TEST(NetlistParse, SuffixedNumbersMatchENotationExactly) {
  // The lexer applies SI suffixes by appending the power-of-ten exponent to
  // the digit string before strtod, so suffixed and e-notation spellings of
  // a value produce the same double bit for bit.
  const auto c = load(
      "vs in 0 1.0\n"
      "r1 in out 2.5k\n"
      "r2 out 0 1meg\n"
      "c1 out 0 0.3p\n"
      "c2 out 0 10pF\n"  // trailing unit letters ignored
      ".var rr 1 2 lin\n"
      "r3 out 0 {rr}\n"
      ".spec objective V V = vdc(out)\n");
  const auto elab = c.elaborate({0.0});
  EXPECT_DOUBLE_EQ(elab.circuit.resistors()[0].r, 2.5e3);
  EXPECT_DOUBLE_EQ(elab.circuit.resistors()[1].r, 1e6);
  EXPECT_DOUBLE_EQ(elab.circuit.capacitors()[0].c, 0.3e-12);
  EXPECT_DOUBLE_EQ(elab.circuit.capacitors()[1].c, 10e-12);
}

TEST(NetlistParse, ExpressionPrecedenceAndFunctions) {
  const auto c = load(
      ".param a = 2+3*4\n"           // 14
      ".param b = {(2+3)*4}\n"       // 20
      ".param c = cond(is180, 7, 9)\n"
      ".param d = max(sqrt(16), 2)/2\n"
      "vs in 0 1.0\n"
      "r1 in out {a}\n"
      "r2 out 0 {b}\n"
      "r3 out 0 {c}\n"
      "r4 out 0 {d}\n"
      ".var u 1 2 lin\n"
      "r5 out 0 {u*10}\n"
      ".spec objective V V = vdc(out)\n");
  const auto elab = c.elaborate({0.0});
  EXPECT_DOUBLE_EQ(elab.circuit.resistors()[0].r, 14.0);
  EXPECT_DOUBLE_EQ(elab.circuit.resistors()[1].r, 20.0);
  EXPECT_DOUBLE_EQ(elab.circuit.resistors()[2].r, 7.0);  // 180nm PDK
  EXPECT_DOUBLE_EQ(elab.circuit.resistors()[3].r, 2.0);
  EXPECT_DOUBLE_EQ(elab.circuit.resistors()[4].r, 10.0);
}

TEST(NetlistParse, ContinuationLinesAndComments) {
  const auto c = load(
      "* full-line comment\n"
      "vs in 0\n"
      "+ 1.0        ; inline comment\n"
      "r1 in out 1k\n"
      "r2 out 0 1k\n"
      ".spec objective V V = vdc(out)\n"
      ".var u 1 2 lin\n"
      "r3 out 0 {u}\n");
  const auto elab = c.elaborate({0.5});
  EXPECT_DOUBLE_EQ(elab.circuit.vsources()[0].dc, 1.0);
}

TEST(NetlistParse, NumericNodeNamesKeepTheirSpelling) {
  // "2a" must stay node "2a" — not be lexed as the number 2 with trailing
  // letters dropped — and must be addressable from measures.
  const auto c = load(
      "vs 1 0 1.0\n"
      "r1 1 2a 1k\n"
      "r2 2a 0 1k\n"
      ".var u 1 2 lin\n"
      "r3 2a 0 {u*1k}\n"
      ".spec objective V V = vdc(2a)\n");
  const auto elab = c.elaborate({0.0});
  EXPECT_EQ(elab.nodes.count("2a"), 1u);
  EXPECT_EQ(elab.nodes.count("1"), 1u);
  const auto m = c.evaluate({0.0});  // r2 || r3 = 500 against r1 = 1k
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR((*m)[0], 1.0 / 3.0, 1e-9);
}

TEST(NetlistParse, CommentLineBetweenContinuations) {
  const auto c = load(
      "vs in 0\n"
      "* annotation between card and continuation\n"
      "+ 1.0\n"
      "r1 in out 1k\n"
      ".var u 1 2 lin\n"
      "r2 out 0 {u}\n"
      ".spec objective V V = vdc(out)\n");
  EXPECT_DOUBLE_EQ(c.elaborate({0.5}).circuit.vsources()[0].dc, 1.0);
}

TEST(NetlistParse, DiodeModelOverridesApply) {
  const auto c = load(
      ".model dx d is=2e-15 n=1.2 xti=2.5\n"
      "vs in 0 1.0\n"
      "r1 in out 1k\n"
      "d1 out 0 dx area=2\n"
      ".var u 1 2 lin\n"
      "r2 out 0 {u*1k}\n"
      ".spec objective V V = vdc(out)\n");
  const auto elab = c.elaborate({0.5});
  ASSERT_EQ(elab.circuit.diodes().size(), 1u);
  EXPECT_DOUBLE_EQ(elab.circuit.diodes()[0].is_sat, 2e-15);
  EXPECT_DOUBLE_EQ(elab.circuit.diodes()[0].ideality, 1.2);
  EXPECT_DOUBLE_EQ(elab.circuit.diodes()[0].xti, 2.5);
  EXPECT_DOUBLE_EQ(elab.circuit.diodes()[0].area, 2.0);  // card override wins
}

TEST(NetlistParse, SubcktFlatteningWithParams) {
  const auto c = load(
      ".subckt div a b rtopv=1k rbotv=1k\n"
      "rtop a m {rtopv}\n"
      "rbot m b {rbotv}\n"
      ".ends\n"
      "vs in 0 1.0\n"
      "x1 in out div rtopv=2k\n"
      "x2 out 0 div rbotv=3k\n"
      ".var u 1 2 lin\n"
      "rl out 0 {u*1e3}\n"
      ".spec objective V V = vdc(out)\n");
  const auto elab = c.elaborate({0.0});
  ASSERT_EQ(elab.circuit.resistors().size(), 5u);
  EXPECT_DOUBLE_EQ(elab.circuit.resistors()[0].r, 2e3);  // x1 rtop override
  EXPECT_DOUBLE_EQ(elab.circuit.resistors()[1].r, 1e3);  // x1 rbot default
  EXPECT_DOUBLE_EQ(elab.circuit.resistors()[2].r, 1e3);  // x2 rtop default
  EXPECT_DOUBLE_EQ(elab.circuit.resistors()[3].r, 3e3);  // x2 rbot override
  // Flat node names: in, out, x1.m, x2.m -> 4 named nodes + ground.
  EXPECT_EQ(elab.circuit.n_nodes(), 5u);
  EXPECT_EQ(elab.nodes.count("x1.m"), 1u);
  EXPECT_EQ(elab.nodes.count("x2.m"), 1u);
}

TEST(NetlistCircuit, DcDividerEvaluates) {
  const auto c = load(
      "vs in 0 1.0\n"
      ".var rr 500 2000 lin\n"
      "r1 in out 1k\n"
      "r2 out 0 {rr}\n"
      ".spec objective Vout V = vdc(out)\n");
  EXPECT_EQ(c.dim(), 1u);
  EXPECT_EQ(c.n_metrics(), 1u);
  EXPECT_EQ(c.objective_name(), "Vout(V)");
  // Default expert: mid-box.
  EXPECT_DOUBLE_EQ(c.expert_design()[0], 0.5);
  const double u = 0.25;
  const double rr = 500.0 + u * 1500.0;
  const auto m = c.evaluate({u});
  ASSERT_TRUE(m.has_value());
  EXPECT_NEAR((*m)[0], rr / (1000.0 + rr), 1e-9);
}

// ---------------------------------------------------------------------------
// Diagnostics: every rejection carries file/line.

TEST(NetlistDiag, MalformedCardCarriesLine) {
  expect_diag(
      "vs in 0 1.0\n"
      "r1 in out\n"  // missing value
      ".spec objective V V = vdc(in)\n",
      2, "expected a value");
}

TEST(NetlistDiag, TemperatureBelowDeviceTableFloorCarriesLine) {
  // Below the floor the device table would need more than its cell cap
  // (1e-4 K used to fail every evaluation with std::bad_alloc; 1e-30 K
  // overflowed the cell-count cast).
  for (const char* temp : {"1e-4", "1e-30", "0", "-5"}) {
    expect_diag(std::string("vs in 0 1.0\n"
                            ".var u 1 2 lin\n"
                            "r1 in 0 {u}\n"
                            ".temp ") +
                    temp + "\n.spec objective V V = vdc(in)\n",
                4, ".temp must be a finite Kelvin temperature >=");
  }
  // Cryogenic but above the floor is accepted.
  EXPECT_NO_THROW(load("vs in 0 1.0\n"
                       ".var u 1 2 lin\n"
                       "r1 in 0 {u}\n"
                       ".temp 77\n"
                       ".spec objective V V = vdc(in)\n"));
}

TEST(NetlistDiag, UndefinedParamCarriesLine) {
  expect_diag(
      "vs in 0 1.0\n"
      ".var u 1 2 lin\n"
      "r1 in out {u}\n"
      "r2 out 0 {nope}\n"
      ".spec objective V V = vdc(out)\n",
      4, "undefined parameter or variable 'nope'");
}

TEST(NetlistDiag, DanglingNodeCarriesLine) {
  expect_diag(
      "vs in 0 1.0\n"
      "r1 in out 1k\n"  // 'out' touched once
      "r2 in 0 2k\n"
      ".var u 1 2 lin\n"
      "r3 in 0 {u}\n"
      ".spec objective V V = vdc(in)\n",
      2, "dangling node 'out'");
}

TEST(NetlistDiag, DanglingNodeBehindSubcktPortIsCaught) {
  // The X-card port connection itself is wiring, not a terminal: 'out' is
  // only touched by the single capacitor inside the subckt, so it must
  // still lint as dangling.
  expect_diag(
      ".subckt load a\n"
      "c1 a 0 1p\n"
      ".ends\n"
      "vs in 0 1.0\n"
      "r1 in 0 1k\n"
      ".var u 1 2 lin\n"
      "r2 in 0 {u}\n"
      "x1 out load\n"
      ".spec objective V V = vdc(in)\n",
      8, "dangling node 'out'");
}

TEST(NetlistDiag, UnknownDiodeModelCarriesLine) {
  expect_diag(
      "vs in 0 1.0\n"
      "r1 in out 1k\n"
      "d1 out 0 nope\n"
      ".var u 1 2 lin\n"
      "r2 out 0 {u}\n"
      ".spec objective V V = vdc(out)\n",
      3, "unknown diode model 'nope'");
}

TEST(NetlistDiag, MissingAcPointsAtTheAcConstraint) {
  // The diagnostic must anchor at the AC measure that needs the sweep, not
  // at the (DC-only) objective.
  expect_diag(
      "vs in 0 1.0 ac 1.0\n"
      ".var u 1 2 lin\n"
      "r1 in out {u}\n"
      "c1 out 0 1p\n"
      ".spec objective V V = vdc(out)\n"
      ".spec G dB >= 10 = gain_db(out)\n",
      6, "no '.ac");
}

TEST(NetlistDiag, CyclicSubcktCarriesLine) {
  expect_diag(
      ".subckt a x y\n"
      "xb x y b\n"
      ".ends\n"
      ".subckt b x y\n"
      "xa x y a\n"  // closes the a -> b -> a cycle
      ".ends\n"
      "vs in 0 1.0\n"
      ".var u 1 2 lin\n"
      "r1 in 0 {u}\n"
      "x1 in 0 a\n"
      ".spec objective V V = vdc(in)\n",
      5, "cyclic subckt");
}

TEST(NetlistDiag, AcMeasureWithoutAcLine) {
  expect_diag(
      "vs in 0 1.0 ac 1.0\n"
      ".var u 1 2 lin\n"
      "r1 in out {u}\n"
      "c1 out 0 1p\n"
      ".spec objective G dB = gain_db(out)\n",
      5, "no '.ac");
}

TEST(NetlistDiag, UnknownModelCarriesLine) {
  expect_diag(
      "vs in 0 1.0\n"
      ".var u 1 2 lin\n"
      "r1 in out {u}\n"
      "m1 out in 0 nch w=1u l=1u\n"
      ".spec objective V V = vdc(out)\n",
      4, "unknown MOSFET model 'nch'");
}

TEST(NetlistDiag, MeasureFunctionOutsideSpec) {
  expect_diag(
      "vs in 0 1.0\n"
      ".var u 1 2 lin\n"
      "r1 in out {u}\n"
      "r2 out 0 {vdc(out)}\n"
      ".spec objective V V = vdc(out)\n",
      4, "only valid in .spec");
}

TEST(NetlistDiag, UnknownMeasureListsSupportedSet) {
  // The unknown-measure diagnostic names the whole supported set, so a typo
  // in a .spec line is self-documenting.
  expect_diag(
      "vs in 0 1.0\n"
      ".var u 1 2 lin\n"
      "r1 in out {u}\n"
      "r2 out 0 1k\n"
      ".spec objective V V = slewrate(out)\n",
      5,
      "unknown measure function 'slewrate' (supported: avg_power gain_db "
      "gain_db_at isupply ivsrc overshoot pm prop_delay settling_time "
      "slew_rate ugf value_at vdc vmax vmin)");
}

TEST(NetlistDiag, UnknownDirectiveListsSupportedSet) {
  expect_diag(
      "vs in 0 1.0\n"
      ".noise out\n",
      2,
      "unknown directive '.noise' (supported: .title .param .var .model "
      ".subckt/.ends .ac .tran .ic .temp .spec .corner .mc .expert .end)");
}

TEST(NetlistDiag, UnknownMeasureTarget) {
  expect_diag(
      "vs in 0 1.0\n"
      ".var u 1 2 lin\n"
      "r1 in out {u}\n"
      "r2 out 0 1k\n"
      ".spec objective V V = vdc(nowhere)\n",
      5, "unknown node 'nowhere'");
}

TEST(NetlistDiag, MissingObjective) {
  try {
    load(
        "vs in 0 1.0\n"
        ".var u 1 2 lin\n"
        "r1 in out {u}\n"
        "r2 out 0 1k\n"
        ".spec V V >= 0.1 = vdc(out)\n");
    FAIL() << "deck without objective accepted";
  } catch (const net::NetlistError& err) {
    EXPECT_NE(std::string(err.what()).find("no '.spec objective'"),
              std::string::npos)
        << err.what();
  }
}

TEST(NetlistDiag, DuplicateParam) {
  try {
    net::parse_netlist(".param a = 1\n.param a = 2\n", "test.cir");
    FAIL() << "duplicate .param accepted";
  } catch (const net::NetlistError& err) {
    EXPECT_EQ(err.line(), 2);
    EXPECT_NE(std::string(err.what()).find("duplicate parameter 'a'"),
              std::string::npos);
  }
}

TEST(NetlistDiag, BadVarRangeCarriesLine) {
  expect_diag(
      "vs in 0 1.0\n"
      ".var u 2 1 lin\n"  // lo > hi
      "r1 in out {u}\n"
      "r2 out 0 1k\n"
      ".spec objective V V = vdc(out)\n",
      2, "need lo < hi");
}

TEST(NetlistDiag, OutOfRangeElementValueCarriesCardLine) {
  // sim::Circuit's element checks used to escape construction as a plain
  // std::invalid_argument with no location.
  std::ifstream in(deck_path("buffer_tran.cir"));
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string deck = ss.str();
  struct Mutation {
    const char* card;
    const char* replacement;
    const char* needle;
  };
  for (const Mutation& m :
       {Mutation{"cl out 0 {cload}", "cl out 0 {cload - 1e-9}",
                 "capacitance must be >= 0"},
        Mutation{"cl out 0 {cload}", "cl out 0 {cload - cc*10}",
                 "capacitance must be >= 0"},
        Mutation{"rz n2 nc {rz}", "rz n2 nc {-rz}",
                 "resistance must be > 0"}}) {
    SCOPED_TRACE(m.replacement);
    const std::size_t at = deck.find(m.card);
    ASSERT_NE(at, std::string::npos);
    const int line =
        1 + static_cast<int>(std::count(deck.begin(),
                                        deck.begin() + static_cast<long>(at),
                                        '\n'));
    std::string text = deck;
    text.replace(at, std::string(m.card).size(), m.replacement);
    expect_diag(text, line, m.needle);
  }
}

TEST(NetlistDiag, ModelSubthresholdNBeyondDeviceTableCarriesLine) {
  // n = 0.1 needs ~25k device-table cells at 300 K, over the 16384 cap;
  // this used to construct and then fail every evaluation in the sim layer.
  const std::string head =
      "vdd vdd 0 1.8\n"
      ".var w 1u 10u log\n"
      "r1 vdd d 10k\n"
      "m1 d d 0 nx w={w} l=1u\n"
      ".spec objective V V = vdc(d)\n";
  expect_diag(head + ".model nx nmos n=0.1\n", 6, "device-table cells at 300 K");
  expect_diag(head + ".model nx nmos n=-1\n", 6, "n must be finite and > 0");
  // n = 0.2 fits at 300 K but not at 77 K, whether set by .temp or a corner.
  EXPECT_NO_THROW(load(head + ".model nx nmos n=0.2\n"));
  expect_diag(head + ".model nx nmos n=0.2\n.temp 77\n", 6,
              "device-table cells at 77 K");
  expect_diag(head + ".model nx nmos n=0.2\n.corner cold temp=77\n", 6,
              "device-table cells at 77 K");
  EXPECT_NO_THROW(load(head + ".model nx nmos n=1.3\n.temp 77\n"));
}

// ---------------------------------------------------------------------------
// Factory integration.

TEST(NetlistFactory, LoadsDeckAndListsKindsOnError) {
  const auto c = ckt::make_circuit("netlist:" + deck_path("opamp2.cir"), "180nm");
  EXPECT_EQ(c->name(), "netlist-opamp2-180nm");
  EXPECT_EQ(c->dim(), 8u);

  try {
    ckt::make_circuit("opamp9", "180nm");
    FAIL() << "unknown kind accepted";
  } catch (const std::invalid_argument& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("opamp9"), std::string::npos);
    EXPECT_NE(msg.find("registered kinds"), std::string::npos);
    EXPECT_NE(msg.find("netlist:"), std::string::npos);
  }
  EXPECT_THROW(ckt::make_circuit("netlist:/no/such/deck.cir", "180nm"),
               std::invalid_argument);
  try {
    ckt::make_circuit("opamp2", "28nm");
    FAIL() << "unknown node accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("180nm"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Golden equivalence with the hand-written two-stage OpAmp.

class NetlistGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(NetlistGolden, SpaceAndSpecsMatchHardcoded) {
  const auto hard = ckt::make_circuit("opamp2", GetParam());
  const auto soft =
      ckt::make_circuit("netlist:" + deck_path("opamp2.cir"), GetParam());
  const auto& hs = hard->space();
  const auto& ss = soft->space();
  ASSERT_EQ(hs.dim(), ss.dim());
  for (std::size_t i = 0; i < hs.dim(); ++i) {
    EXPECT_DOUBLE_EQ(hs.lo[i], ss.lo[i]) << "var " << i;
    EXPECT_DOUBLE_EQ(hs.hi[i], ss.hi[i]) << "var " << i;
    EXPECT_EQ(hs.log_scale[i], ss.log_scale[i]) << "var " << i;
  }
  ASSERT_EQ(hard->constraints().size(), soft->constraints().size());
  for (std::size_t i = 0; i < hard->constraints().size(); ++i) {
    EXPECT_DOUBLE_EQ(hard->constraints()[i].bound, soft->constraints()[i].bound);
    EXPECT_EQ(hard->constraints()[i].is_lower_bound,
              soft->constraints()[i].is_lower_bound);
    EXPECT_EQ(hard->constraints()[i].name, soft->constraints()[i].name);
  }
  EXPECT_EQ(hard->objective_name(), soft->objective_name());
}

TEST_P(NetlistGolden, MetricsMatchHardcodedOnSeededPoints) {
  const auto hard = ckt::make_circuit("opamp2", GetParam());
  const auto soft =
      ckt::make_circuit("netlist:" + deck_path("opamp2.cir"), GetParam());

  // Expert design: identical coordinates and identical metrics.
  ASSERT_EQ(hard->expert_design(), soft->expert_design());
  const auto em_h = hard->evaluate(hard->expert_design());
  const auto em_s = soft->evaluate(soft->expert_design());
  ASSERT_TRUE(em_h && em_s);
  for (std::size_t j = 0; j < em_h->size(); ++j)
    EXPECT_NEAR((*em_h)[j], (*em_s)[j], 1e-9);

  kato::util::Rng rng(GetParam() == std::string("180nm") ? 1234 : 4321);
  int compared = 0;
  for (int i = 0; i < 30; ++i) {
    const auto x = rng.uniform_vec(hard->dim());
    const auto a = hard->evaluate(x);
    const auto b = soft->evaluate(x);
    ASSERT_EQ(a.has_value(), b.has_value()) << "point " << i;
    if (!a) continue;
    ++compared;
    ASSERT_EQ(a->size(), b->size());
    for (std::size_t j = 0; j < a->size(); ++j)
      EXPECT_NEAR((*a)[j], (*b)[j], 1e-9) << "point " << i << " metric " << j;
  }
  // The acceptance bar: >= 16 successfully simulated points per node.
  EXPECT_GE(compared, 16);
}

INSTANTIATE_TEST_SUITE_P(BothNodes, NetlistGolden,
                         ::testing::Values("180nm", "40nm"));

// ---------------------------------------------------------------------------
// Seeded BO on decks (slow label).

TEST(NetlistBo, SeededFiveIterationRunIsReproducible) {
  const auto c = ckt::make_circuit("netlist:" + deck_path("opamp2.cir"), "180nm");
  bo::BoConfig cfg;
  cfg.n_init = 14;
  cfg.iterations = 5;
  cfg.batch = 2;
  cfg.nsga.population = 12;
  cfg.nsga.generations = 6;
  cfg.max_gp_points = 96;
  cfg.hyper_every = 3;
  cfg.gp_initial.iterations = 15;
  cfg.gp_refit.iterations = 6;
  const auto r1 = bo::run_constrained(*c, bo::ConstrainedMethod::kato, cfg, 5);
  const auto r2 = bo::run_constrained(*c, bo::ConstrainedMethod::kato, cfg, 5);
  ASSERT_EQ(r1.trace.size(), r2.trace.size());
  EXPECT_EQ(r1.trace.size(), cfg.n_init + cfg.batch * cfg.iterations);
  for (std::size_t i = 0; i < r1.trace.size(); ++i)
    EXPECT_DOUBLE_EQ(r1.trace[i], r2.trace[i]) << "sim " << i;
  ASSERT_EQ(r1.x_history.size(), r2.x_history.size());
  for (std::size_t i = 0; i < r1.x_history.size(); ++i)
    EXPECT_EQ(r1.x_history[i], r2.x_history[i]) << "sim " << i;
}

TEST(NetlistBo, TransferBetweenTwoNetlistVariants) {
  // KAT/STL transfer with BOTH endpoints defined by decks: source knowledge
  // from opamp2.cir feeds a KATO run on the opamp2_fast.cir variant.
  const auto src = ckt::make_circuit("netlist:" + deck_path("opamp2.cir"), "180nm");
  const auto tgt =
      ckt::make_circuit("netlist:" + deck_path("opamp2_fast.cir"), "180nm");
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
  cfg.kat.init_iterations = 40;
  cfg.kat.refit_iterations = 8;
  const auto cmp = core::run_transfer_comparison(*src, *tgt, 40, cfg, {1},
                                                 bo::KernelKind::rbf, 7);
  EXPECT_GT(cmp.source.x.rows(), 0u);
  EXPECT_EQ(cmp.source.dim, src->dim());
  ASSERT_EQ(cmp.with_transfer.runs.size(), 1u);
  ASSERT_EQ(cmp.without_transfer.runs.size(), 1u);
  const std::size_t expect_sims = cfg.n_init + cfg.batch * cfg.iterations;
  EXPECT_EQ(cmp.with_transfer.runs[0].trace.size(), expect_sims);
  EXPECT_EQ(cmp.without_transfer.runs[0].trace.size(), expect_sims);
}
