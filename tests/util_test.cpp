#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/sampling.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ku = kato::util;

#ifndef KATO_SOURCE_DIR
#define KATO_SOURCE_DIR "."
#endif

TEST(Rng, DeterministicForSameSeed) {
  ku::Rng a(42);
  ku::Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  ku::Rng a(1);
  ku::Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  ku::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  ku::Rng rng(11);
  auto v = rng.normal_vec(20000);
  EXPECT_NEAR(ku::mean(v), 0.0, 0.05);
  EXPECT_NEAR(ku::stddev(v), 1.0, 0.05);
}

TEST(Rng, PermutationIsPermutation) {
  ku::Rng rng(3);
  auto p = rng.permutation(50);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, ChoiceDistinct) {
  ku::Rng rng(5);
  auto c = rng.choice(100, 30);
  std::set<std::size_t> seen(c.begin(), c.end());
  EXPECT_EQ(seen.size(), 30u);
  for (auto i : seen) EXPECT_LT(i, 100u);
}

TEST(Rng, ChoiceThrowsWhenKTooLarge) {
  ku::Rng rng(5);
  EXPECT_THROW(rng.choice(3, 4), std::invalid_argument);
}

TEST(Rng, SplitStreamsIndependent) {
  ku::Rng parent(9);
  ku::Rng child = parent.split();
  // Child draws must not equal the parent's subsequent draws.
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (parent.uniform() == child.uniform()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Sampling, LatinHypercubeStratified) {
  ku::Rng rng(13);
  const std::size_t n = 16;
  auto m = ku::latin_hypercube(n, 3, rng);
  // Exactly one point per 1/n bin in every dimension.
  for (std::size_t j = 0; j < 3; ++j) {
    std::vector<int> bin_count(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = m.data[i * 3 + j];
      ASSERT_GE(v, 0.0);
      ASSERT_LT(v, 1.0);
      ++bin_count[static_cast<std::size_t>(v * static_cast<double>(n))];
    }
    for (int c : bin_count) EXPECT_EQ(c, 1);
  }
}

TEST(Sampling, ScaleRoundTrip) {
  std::vector<double> lo{-1.0, 0.0, 10.0};
  std::vector<double> hi{1.0, 5.0, 20.0};
  std::vector<double> unit{0.25, 0.5, 0.75};
  auto x = ku::scale_to_box(unit, lo, hi);
  EXPECT_DOUBLE_EQ(x[0], -0.5);
  EXPECT_DOUBLE_EQ(x[1], 2.5);
  EXPECT_DOUBLE_EQ(x[2], 17.5);
  auto u = ku::scale_to_unit(x, lo, hi);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(u[i], unit[i], 1e-12);
}

TEST(Stats, BasicMoments) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(ku::mean(v), 2.5);
  EXPECT_DOUBLE_EQ(ku::variance(v), 1.25);
  EXPECT_DOUBLE_EQ(ku::median(v), 2.5);
}

TEST(Stats, QuantileInterpolation) {
  std::vector<double> v{0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(ku::quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ku::quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(ku::quantile(v, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(ku::quantile(v, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(ku::quantile(v, 0.1), 0.4);
}

TEST(Stats, EmptyThrows) {
  std::vector<double> v;
  EXPECT_THROW(ku::mean(v), std::invalid_argument);
  EXPECT_THROW(ku::quantile(v, 0.5), std::invalid_argument);
}

TEST(Stats, RunningBest) {
  std::vector<double> v{3.0, 1.0, 4.0, 1.0, 5.0};
  auto mx = ku::running_max(v);
  auto mn = ku::running_min(v);
  EXPECT_EQ(mx, (std::vector<double>{3, 3, 4, 4, 5}));
  EXPECT_EQ(mn, (std::vector<double>{3, 1, 1, 1, 1}));
}

TEST(Stats, AggregateTraces) {
  std::vector<std::vector<double>> traces{{1, 2}, {3, 4}, {5, 6}};
  auto band = ku::aggregate_traces(traces);
  EXPECT_DOUBLE_EQ(band.median[0], 3.0);
  EXPECT_DOUBLE_EQ(band.median[1], 4.0);
  EXPECT_DOUBLE_EQ(band.q25[0], 2.0);
  EXPECT_DOUBLE_EQ(band.q75[0], 4.0);
}

TEST(Stats, AggregateTracesRejectsRagged) {
  std::vector<std::vector<double>> traces{{1, 2}, {3}};
  EXPECT_THROW(ku::aggregate_traces(traces), std::invalid_argument);
}

TEST(Table, AlignedOutput) {
  ku::Table t({"method", "value"});
  t.add_row({"kato", "1.0"});
  t.add_row("mace", {2.5}, 1);
  const auto s = t.to_string();
  EXPECT_NE(s.find("method"), std::string::npos);
  EXPECT_NE(s.find("kato"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
}

TEST(Table, CsvOutput) {
  ku::Table t({"a", "b"});
  t.add_row({"x", "y"});
  EXPECT_EQ(t.to_csv(), "a,b\nx,y\n");
}

TEST(Table, RejectsWrongArity) {
  ku::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

// --- Environment table -------------------------------------------------------

namespace {

/// One well-formed value per row, by kind (spec rows by name).
std::string valid_value(const ku::EnvVar& row) {
  switch (row.kind) {
    case ku::EnvKind::integer:
      return std::to_string(row.lo);
    case ku::EnvKind::toggle:
      return "off";
    case ku::EnvKind::path:
      return "out dir/run.json";  // interior spaces are legal
    case ku::EnvKind::spec:
      if (std::string(row.name) == "KATO_FAULT") return "dc:singular:0.5:7";
  }
  ADD_FAILURE() << row.name << ": no well-formed sample value";
  return "";
}

/// Values every row must reject, with the row's own rule applied.
std::vector<std::string> unusable_values(const ku::EnvVar& row) {
  const std::string ok = valid_value(row);
  std::vector<std::string> bad{"", " ", " " + ok, ok + " ", "\t" + ok,
                               ok + "\n"};
  switch (row.kind) {
    case ku::EnvKind::integer:
      bad.insert(bad.end(), {ok + "x", "+" + ok, "1e3", "0x10", "abc",
                             std::to_string(row.lo - 1), "-5",
                             "-99999999999999999999999"});
      break;
    case ku::EnvKind::toggle:
      bad.insert(bad.end(), {ok + "x", "no", "2", "OFF", "yes"});
      break;
    case ku::EnvKind::path:
      break;  // any non-empty string without whitespace edges is a path
    case ku::EnvKind::spec:
      bad.insert(bad.end(), {ok + "x", ok + ":1", "bogus"});
      break;
  }
  return bad;
}

/// Reads `row` with `value` set, returning what landed on stderr.
std::string read_with(ku::Env e, const ku::EnvVar& row, const char* value) {
  if (value)
    setenv(row.name, value, 1);
  else
    unsetenv(row.name);
  testing::internal::CaptureStderr();
  EXPECT_EQ(ku::env_get(e), nullptr)
      << row.name << "='" << (value ? value : "(unset)") << "'";
  if (row.kind == ku::EnvKind::integer) {
    EXPECT_FALSE(ku::env_int(e).has_value());
  }
  if (row.kind == ku::EnvKind::toggle) {
    EXPECT_EQ(ku::env_toggle(e), std::string(row.def) == "1");
  }
  return testing::internal::GetCapturedStderr();
}

}  // namespace

TEST(EnvTable, EveryRowFollowsTheOneRule) {
  const auto table = ku::env_table();
  ASSERT_EQ(table.size(), static_cast<std::size_t>(ku::Env::count_));
  std::set<std::string> names;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto e = static_cast<ku::Env>(i);
    const ku::EnvVar& row = table[i];
    EXPECT_EQ(&ku::env_var(e), &row);
    EXPECT_EQ(std::string(row.name).rfind("KATO_", 0), 0u) << row.name;
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
    const char* prev = std::getenv(row.name);
    const std::string saved = prev ? prev : "";

    // Unset: the default, silently.
    EXPECT_EQ(read_with(e, row, nullptr), "") << row.name;

    // Well-formed: used verbatim, silently.
    const std::string ok = valid_value(row);
    setenv(row.name, ok.c_str(), 1);
    testing::internal::CaptureStderr();
    ASSERT_NE(ku::env_get(e), nullptr) << row.name;
    EXPECT_EQ(std::string(ku::env_get(e)), ok);
    if (row.kind == ku::EnvKind::integer) {
      EXPECT_EQ(ku::env_int(e), row.lo);
      // Above the range clamps (silently) instead of being rejected.
      setenv(row.name, std::to_string(row.hi + 1).c_str(), 1);
      EXPECT_EQ(ku::env_int(e), row.hi);
      setenv(row.name, "99999999999999999999999", 1);
      EXPECT_EQ(ku::env_int(e), row.hi);
    }
    if (row.kind == ku::EnvKind::toggle) {
      EXPECT_FALSE(ku::env_toggle(e));
      for (const char* on : {"1", "on", "true"}) {
        setenv(row.name, on, 1);
        EXPECT_TRUE(ku::env_toggle(e)) << on;
      }
      for (const char* off : {"0", "false"}) {
        setenv(row.name, off, 1);
        EXPECT_FALSE(ku::env_toggle(e)) << off;
      }
    }
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "") << row.name;

    // Unusable: the default, and exactly one warning line per process (the
    // second read stays quiet until the warning latch is reset).
    for (const std::string& bad : unusable_values(row)) {
      ku::env_reset_warnings();
      const std::string first = read_with(e, row, bad.c_str());
      EXPECT_EQ(std::count(first.begin(), first.end(), '\n'), 1)
          << row.name << "='" << bad << "': " << first;
      EXPECT_EQ(first.rfind(std::string(row.name) + ": ", 0), 0u) << first;
      EXPECT_EQ(read_with(e, row, bad.c_str()), "")
          << row.name << "='" << bad << "'";
    }
    ku::env_reset_warnings();

    if (prev)
      setenv(row.name, saved.c_str(), 1);
    else
      unsetenv(row.name);
  }
}

TEST(EnvTable, ReadmeListsExactlyTheTableRows) {
  // README's env table is the table rendered: one line per row, in order,
  // plus the tool-only variables that the library never reads.
  std::ifstream in(std::string(KATO_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(in.good());
  std::vector<std::string> rows;
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("### ", 0) == 0 || line.rfind("## ", 0) == 0)
      in_section = line == "### Environment variables";
    if (in_section && line.rfind("| `KATO_", 0) == 0) rows.push_back(line);
  }
  const auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '|') out += '\\';
      out += c;
    }
    return out;
  };
  std::vector<std::string> expected;
  for (const auto& row : ku::env_table())
    expected.push_back("| `" + std::string(row.name) + "=" +
                       escape(row.syntax) + "` | " +
                       (*row.def ? std::string(row.def) : "unset") + " | " +
                       escape(row.doc) + " |");
  std::vector<std::string> library;
  for (const auto& r : rows)
    if (r.find("| tool-only:") == std::string::npos) library.push_back(r);
  EXPECT_EQ(library, expected);
  ASSERT_EQ(rows.size(), library.size() + 1);
  EXPECT_EQ(rows.back().rfind("| `KATO_BENCH_TOL=", 0), 0u) << rows.back();
}
