/** @file Tests for the experiment harness utilities. */

#include <gtest/gtest.h>

#include <sstream>

#include "src/harness/runner.hh"
#include "src/harness/table.hh"

namespace netcrafter::harness {
namespace {

using serve::parseServeLoadEnv;
using serve::parseServeSeedEnv;
using serve::parseServeTicksEnv;

TEST(Table, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    // Separator line present.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, ShortRowsPadded)
{
    Table t({"a", "b", "c"});
    t.addRow({"only"});
    std::ostringstream os;
    t.print(os); // must not crash
    EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
    EXPECT_EQ(Table::pct(0.42, 1), "42.0%");
    EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(Geomean, KnownValues)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Geomean, EmptyInputIsZero)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean(std::vector<double>{}), 0.0);
}

TEST(Geomean, SingleElementIsIdentity)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({0.25}), 0.25);
    // log/exp round-trip: exact to ~1e-14 relative error.
    EXPECT_NEAR(geomean({1e300}) / 1e300, 1.0, 1e-13);
}

TEST(Geomean, LargeProductsDoNotOverflow)
{
    // 100 factors of 1e30 would overflow a naive product; the log-sum
    // implementation must not.
    std::vector<double> xs(100, 1e30);
    EXPECT_NEAR(geomean(xs) / 1e30, 1.0, 1e-13);
}

TEST(Geomean, NonPositiveDies)
{
    EXPECT_DEATH(geomean({1.0, 0.0}), "non-positive");
    EXPECT_DEATH(geomean({-2.0}), "non-positive");
}

TEST(EnvScale, DefaultsToOne)
{
    // Run options default to full size; the environment (CI sets
    // NETCRAFTER_SCALE) only enters through fromEnv().
    EXPECT_EQ(RunOptions{}.scale, 1.0);
    EXPECT_GT(RunOptions::fromEnv().scale, 0.0);
}

TEST(ParseScaleEnv, AcceptsPositiveNumbers)
{
    EXPECT_DOUBLE_EQ(parseScaleEnv("1"), 1.0);
    EXPECT_DOUBLE_EQ(parseScaleEnv("0.05"), 0.05);
    EXPECT_DOUBLE_EQ(parseScaleEnv("2.5"), 2.5);
    EXPECT_DOUBLE_EQ(parseScaleEnv("1e-3"), 1e-3);
}

TEST(ParseScaleEnvDeathTest, RejectsBadValues)
{
    EXPECT_EXIT(parseScaleEnv("abc"), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
    EXPECT_EXIT(parseScaleEnv("1.5x"), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
    EXPECT_EXIT(parseScaleEnv(""), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
    EXPECT_EXIT(parseScaleEnv("0"), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
    EXPECT_EXIT(parseScaleEnv("-2"), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
    EXPECT_EXIT(parseScaleEnv("nan"), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
    EXPECT_EXIT(parseScaleEnv("inf"), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
}

TEST(ParseTolerancePct, AcceptsNonNegativeNumbers)
{
    EXPECT_DOUBLE_EQ(parseTolerancePct("2", "--tolerance"), 2.0);
    EXPECT_DOUBLE_EQ(parseTolerancePct("0.5", "--tolerance"), 0.5);
    EXPECT_DOUBLE_EQ(parseTolerancePct("0", "--tolerance"), 0.0);
}

TEST(ParseTolerancePctDeathTest, RejectsTrailingGarbage)
{
    EXPECT_EXIT(parseTolerancePct("2x", "--tolerance"),
                testing::ExitedWithCode(1),
                "--tolerance must be a non-negative finite number, "
                "got '2x'");
}

TEST(ParseTolerancePctDeathTest, RejectsNonNumbers)
{
    EXPECT_EXIT(parseTolerancePct("abc", "--tolerance"),
                testing::ExitedWithCode(1), "--tolerance");
    EXPECT_EXIT(parseTolerancePct("", "--tolerance"),
                testing::ExitedWithCode(1), "--tolerance");
}

TEST(ParseTolerancePctDeathTest, RejectsNegatives)
{
    EXPECT_EXIT(parseTolerancePct("-1", "--tolerance"),
                testing::ExitedWithCode(1), "--tolerance");
}

TEST(ParseTolerancePctDeathTest, RejectsNanAndInfinity)
{
    EXPECT_EXIT(parseTolerancePct("nan", "--tolerance"),
                testing::ExitedWithCode(1), "--tolerance");
    EXPECT_EXIT(parseTolerancePct("inf", "--tolerance"),
                testing::ExitedWithCode(1), "--tolerance");
}

TEST(ParseShardsEnv, AcceptsPositiveIntegers)
{
    EXPECT_EQ(parseShardsEnv("1"), 1u);
    EXPECT_EQ(parseShardsEnv("4"), 4u);
    EXPECT_EQ(parseShardsEnv("64"), 64u);
}

TEST(ParseShardsEnvDeathTest, RejectsBadValues)
{
    EXPECT_EXIT(parseShardsEnv("0"), testing::ExitedWithCode(1),
                "NETCRAFTER_SHARDS");
    EXPECT_EXIT(parseShardsEnv("-2"), testing::ExitedWithCode(1),
                "NETCRAFTER_SHARDS");
    EXPECT_EXIT(parseShardsEnv("abc"), testing::ExitedWithCode(1),
                "NETCRAFTER_SHARDS");
    EXPECT_EXIT(parseShardsEnv("4x"), testing::ExitedWithCode(1),
                "NETCRAFTER_SHARDS");
    EXPECT_EXIT(parseShardsEnv(""), testing::ExitedWithCode(1),
                "NETCRAFTER_SHARDS");
    EXPECT_EXIT(parseShardsEnv("2.5"), testing::ExitedWithCode(1),
                "NETCRAFTER_SHARDS");
    // strtol saturates, so absurd counts die instead of wrapping.
    EXPECT_EXIT(parseShardsEnv("99999999999999999999"),
                testing::ExitedWithCode(1), "NETCRAFTER_SHARDS");
}

TEST(ParseServeEnv, AcceptsValidValues)
{
    EXPECT_DOUBLE_EQ(parseServeLoadEnv("4"), 4.0);
    EXPECT_DOUBLE_EQ(parseServeLoadEnv("0.5"), 0.5);
    EXPECT_DOUBLE_EQ(parseServeLoadEnv("12.25"), 12.25);

    EXPECT_EQ(parseServeTicksEnv("1", "NETCRAFTER_SERVE_WARMUP"), 1u);
    EXPECT_EQ(parseServeTicksEnv("20000", "NETCRAFTER_SERVE_WARMUP"),
              20'000u);

    EXPECT_EQ(parseServeSeedEnv("0"), 0u);
    EXPECT_EQ(parseServeSeedEnv("12345"), 12'345u);
}

TEST(ParseServeLoadEnvDeathTest, RejectsBadValues)
{
    EXPECT_EXIT(parseServeLoadEnv("0"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
    EXPECT_EXIT(parseServeLoadEnv("-4"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
    EXPECT_EXIT(parseServeLoadEnv("abc"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
    EXPECT_EXIT(parseServeLoadEnv("4x"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
    EXPECT_EXIT(parseServeLoadEnv(""), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
    EXPECT_EXIT(parseServeLoadEnv("nan"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
    EXPECT_EXIT(parseServeLoadEnv("inf"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
}

TEST(ParseServeTicksEnvDeathTest, RejectsBadValues)
{
    EXPECT_EXIT(parseServeTicksEnv("0", "NETCRAFTER_SERVE_MEASURE"),
                testing::ExitedWithCode(1), "NETCRAFTER_SERVE_MEASURE");
    EXPECT_EXIT(parseServeTicksEnv("-5", "NETCRAFTER_SERVE_MEASURE"),
                testing::ExitedWithCode(1), "NETCRAFTER_SERVE_MEASURE");
    EXPECT_EXIT(parseServeTicksEnv("abc", "NETCRAFTER_SERVE_WARMUP"),
                testing::ExitedWithCode(1), "NETCRAFTER_SERVE_WARMUP");
    EXPECT_EXIT(parseServeTicksEnv("5k", "NETCRAFTER_SERVE_WARMUP"),
                testing::ExitedWithCode(1), "NETCRAFTER_SERVE_WARMUP");
    EXPECT_EXIT(parseServeTicksEnv("", "NETCRAFTER_SERVE_WARMUP"),
                testing::ExitedWithCode(1), "NETCRAFTER_SERVE_WARMUP");
    EXPECT_EXIT(parseServeTicksEnv("2.5", "NETCRAFTER_SERVE_MEASURE"),
                testing::ExitedWithCode(1), "NETCRAFTER_SERVE_MEASURE");
}

TEST(ParseServeSeedEnvDeathTest, RejectsBadValues)
{
    EXPECT_EXIT(parseServeSeedEnv("-1"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_SEED");
    EXPECT_EXIT(parseServeSeedEnv("abc"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_SEED");
    EXPECT_EXIT(parseServeSeedEnv("7x"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_SEED");
    EXPECT_EXIT(parseServeSeedEnv(""), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_SEED");
}

TEST(SameMeasurement, DetectsAnyFieldDifference)
{
    RunResult a;
    a.workload = "GUPS";
    a.cycles = 10;
    a.l1Mpki = 1.5;
    RunResult b = a;
    EXPECT_TRUE(sameMeasurement(a, b));

    // wallSeconds is diagnostics-only and must not affect equality.
    b.wallSeconds = 99.0;
    EXPECT_TRUE(sameMeasurement(a, b));

    b = a;
    b.cycles = 11;
    EXPECT_FALSE(sameMeasurement(a, b));

    b = a;
    b.bytesNeededFrac[2] = 0.5;
    EXPECT_FALSE(sameMeasurement(a, b));

    // Serving measurements participate in equality too.
    b = a;
    b.serveMeasured = 7;
    EXPECT_FALSE(sameMeasurement(a, b));

    b = a;
    b.serveClasses[3].p99 = 1'234;
    EXPECT_FALSE(sameMeasurement(a, b));
}

} // namespace
} // namespace netcrafter::harness
