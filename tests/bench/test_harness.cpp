/**
 * @file
 * Pins the shared bench-report envelope: exact JSON layout (golden
 * string), the meta.host stamp, gate -> pass -> exit-code semantics,
 * meta overwrite, string escaping, the fingerprint formatting every
 * bench shares, the thread ladder scaling sweeps run, and the
 * interleaved best-of-N timer every host-timed row goes through.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
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
    "host": ")" + bench::hostStamp() + R"(",
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
    // The host stamp is the only meta key a bare report carries.
    EXPECT_NE(json.find("\"meta\": {\n    \"host\": "), std::string::npos);
    EXPECT_NE(json.find("\"rows\": {},"), std::string::npos);
    EXPECT_NE(json.find("\"gates\": [],"), std::string::npos);
    // No gates: vacuous pass.
    EXPECT_TRUE(report.pass());
    EXPECT_NE(json.find("\"pass\": true"), std::string::npos);
}

TEST(BenchHarness, WrittenReportCarriesHostStamp)
{
    const std::string &host = bench::hostStamp();
    EXPECT_FALSE(host.empty());
    for (const char *field :
         {"cpu=", "; cores=", "; simd=", "; build=", "; compiler="})
        EXPECT_NE(host.find(field), std::string::npos) << field;
    // The sanitizer mode closes the stamp on sanitized builds only, so
    // unsanitized stamps keep the form committed reports carry.
    const auto sanitize = host.find("; sanitize=");
    EXPECT_EQ(sanitize != std::string::npos, bench::sanitizedBuild());
    if (sanitize != std::string::npos) {
        EXPECT_GT(sanitize, host.find("; compiler="));
        EXPECT_EQ(host.find(';', sanitize + 1), std::string::npos);
        EXPECT_NE(host.substr(sanitize), "; sanitize=OFF");
    }

    // Written reports carry it, and a bench's own meta keys follow it.
    bench::BenchReport report("host");
    report.meta("frames", 1);
    const std::string path =
        ::testing::TempDir() + "/BENCH_host_test.json";
    ASSERT_EQ(report.write(path), 0);
    std::ifstream in(path);
    const std::string json((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto at = json.find("\"host\": \"" + host + "\"");
    EXPECT_NE(at, std::string::npos);
    EXPECT_LT(at, json.find("\"frames\": 1"));
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

TEST(BenchHarness, ThreadLadderIsCappedAndRejectsBadCounts)
{
    using Ladder = std::vector<std::size_t>;
    EXPECT_EQ(bench::threadLadder(1), (Ladder{1}));
    EXPECT_EQ(bench::threadLadder(2), (Ladder{1, 2}));
    EXPECT_EQ(bench::threadLadder(3), (Ladder{1, 2, 3}));
    EXPECT_EQ(bench::threadLadder(4), (Ladder{1, 2, 4}));
    EXPECT_EQ(bench::threadLadder(16), (Ladder{1, 2, 4, 16}));
    EXPECT_EQ(bench::threadLadder(bench::kMaxBenchThreads),
              (Ladder{1, 2, 4, 1024}));
    // Counts no pool may be built for: empty, so the bench exits 2.
    EXPECT_TRUE(bench::threadLadder(0).empty());
    EXPECT_TRUE(bench::threadLadder(-1).empty());
    EXPECT_TRUE(
        bench::threadLadder(std::numeric_limits<std::int64_t>::min()).empty());
    EXPECT_TRUE(bench::threadLadder(bench::kMaxBenchThreads + 1).empty());
    EXPECT_TRUE(
        bench::threadLadder(std::numeric_limits<std::int64_t>::max()).empty());
}

TEST(BenchHarness, InterleavedBestNsRunsVariantsRoundRobin)
{
    std::string order;
    const auto best = bench::interleavedBestNs(
        4, [&] { order += 'A'; }, [&] { order += 'B'; },
        [&] { order += 'C'; });
    EXPECT_EQ(order, "ABCABCABCABC");
    ASSERT_EQ(best.size(), 3u);
    for (const double ns : best) {
        EXPECT_TRUE(std::isfinite(ns));
        EXPECT_GE(ns, 0.0);
    }

    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(bench::interleavedBestNs(0, [] {}), "reps >= 1");
}
