/**
 * @file
 * Pins the shared bench-report envelope: exact JSON layout (golden
 * string), gate -> pass -> exit-code semantics, meta overwrite, string
 * escaping, and the fingerprint formatting every bench shares.
 */
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "harness.h"
#include "obs/metrics.h"

using namespace sov;

namespace {

std::string
render(const bench::BenchReport &report)
{
    std::ostringstream os;
    report.toJson(os);
    return os.str();
}

} // namespace

TEST(BenchHarness, HexIsZeroPadded16Lowercase)
{
    EXPECT_EQ(bench::hex(0), "0000000000000000");
    EXPECT_EQ(bench::hex(0xDEADBEEFULL), "00000000deadbeef");
    EXPECT_EQ(bench::hex(~0ULL), "ffffffffffffffff");
}

TEST(BenchHarness, GoldenEnvelope)
{
    bench::BenchReport report("golden");
    report.setSmoke(true);
    report.meta("frames", 128);
    report.meta("speedup", 2.5);
    report.addRow("rows_a")
        .set("name", std::string("alpha"))
        .set("ok", true)
        .set("count", std::uint64_t{7});
    report.addRow("rows_a").set("name", "beta").set("ok", false).set(
        "count", std::uint64_t{0});
    report.gate("gate_one", true);
    report.gate("gate_two", true, "explanation");

    const std::string expected = R"({
  "schema": "sov-bench-report-v1",
  "bench": "golden",
  "smoke": true,
  "meta": {
    "frames": 128,
    "speedup": 2.5
  },
  "rows": {
    "rows_a": [
      {"name": "alpha", "ok": true, "count": 7},
      {"name": "beta", "ok": false, "count": 0}
    ]
  },
  "gates": [
    {"name": "gate_one", "pass": true},
    {"name": "gate_two", "pass": true, "detail": "explanation"}
  ],
  "pass": true
}
)";
    EXPECT_EQ(render(report), expected);
}

TEST(BenchHarness, EmptyReportStillValidShape)
{
    bench::BenchReport report("empty");
    const std::string json = render(report);
    EXPECT_NE(json.find("\"meta\": {},"), std::string::npos);
    EXPECT_NE(json.find("\"rows\": {},"), std::string::npos);
    EXPECT_NE(json.find("\"gates\": [],"), std::string::npos);
    // No gates: vacuous pass.
    EXPECT_TRUE(report.pass());
    EXPECT_NE(json.find("\"pass\": true"), std::string::npos);
}

TEST(BenchHarness, PassIsAndOfGatesAndDrivesExitCode)
{
    bench::BenchReport report("gates");
    report.gate("a", true);
    EXPECT_TRUE(report.pass());
    report.gate("b", false, "deliberate");
    EXPECT_FALSE(report.pass());
    EXPECT_NE(render(report).find("\"pass\": false"), std::string::npos);

    const std::string path =
        ::testing::TempDir() + "/BENCH_gates_test.json";
    EXPECT_EQ(report.write(path), 1);

    bench::BenchReport passing("gates_ok");
    passing.gate("a", true);
    EXPECT_EQ(passing.write(path), 0);
}

TEST(BenchHarness, MetaOverwritesInPlace)
{
    bench::BenchReport report("meta");
    report.meta("k", 1);
    report.meta("other", 2);
    report.meta("k", 3);
    const std::string json = render(report);
    const auto first_k = json.find("\"k\": 3");
    EXPECT_NE(first_k, std::string::npos);
    EXPECT_EQ(json.find("\"k\": 1"), std::string::npos);
    // Overwrite keeps original position: "k" before "other".
    EXPECT_LT(first_k, json.find("\"other\": 2"));
}

TEST(BenchHarness, StringEscaping)
{
    bench::BenchReport report("escape");
    report.meta("s", std::string("a\"b\\c\nd\te\r") + '\x01');
    const std::string json = render(report);
    EXPECT_NE(json.find(R"("s": "a\"b\\c\nd\te\r\u0001")"),
              std::string::npos);
}

TEST(BenchHarness, NonFiniteDoublesSerializeAsNull)
{
    bench::BenchReport report("nan");
    report.meta("bad", std::numeric_limits<double>::quiet_NaN());
    report.meta("inf", std::numeric_limits<double>::infinity());
    const std::string json = render(report);
    EXPECT_NE(json.find("\"bad\": null"), std::string::npos);
    EXPECT_NE(json.find("\"inf\": null"), std::string::npos);
}

TEST(BenchHarness, AttachMetricsEmbedsRegistryJson)
{
    obs::MetricRegistry metrics;
    metrics.incr("frames", 3);
    metrics.recordValue("latency_ms", 1.5);
    bench::BenchReport report("metrics");
    report.attachMetrics(metrics);
    const std::string json = render(report);
    EXPECT_NE(json.find("\"metrics\": "), std::string::npos);
    EXPECT_NE(json.find("frames"), std::string::npos);
    EXPECT_NE(json.find("latency_ms"), std::string::npos);
}

TEST(BenchHarness, ExtraEmbedsRawJsonVerbatim)
{
    bench::BenchReport report("extra");
    report.extra("aggregate", "{\"collisions\": 0}");
    report.extra("aggregate", "{\"collisions\": 1}"); // overwrite
    const std::string json = render(report);
    EXPECT_NE(json.find("\"aggregate\": {\"collisions\": 1}"),
              std::string::npos);
    EXPECT_EQ(json.find("\"collisions\": 0"), std::string::npos);
}

TEST(BenchHarness, DefaultPathAndWrite)
{
    bench::BenchReport report("pathcheck");
    EXPECT_EQ(report.defaultPath(), "BENCH_pathcheck.json");
}
