#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace sov::obs {
namespace {

TEST(MetricRegistry, CountersAndGauges)
{
    MetricRegistry m;
    EXPECT_EQ(m.counter("frames"), 0u);
    m.incr("frames");
    m.incr("frames", 4);
    EXPECT_EQ(m.counter("frames"), 5u);
    m.setGauge("level", 2.0);
    m.setGauge("level", 1.0);
    EXPECT_DOUBLE_EQ(m.gauge("level"), 1.0);
    EXPECT_DOUBLE_EQ(m.gauge("unset"), 0.0);
}

TEST(MetricRegistry, HistogramMatchesLatencyTracerArithmetic)
{
    // The registry replaced sim/LatencyTracer; its mean / exact
    // interpolated percentile / stddev must reproduce the tracer's
    // arithmetic sample for sample (Fig. 10 numbers must not move).
    MetricRegistry m;
    for (double ms : {10.0, 20.0, 30.0, 40.0})
        m.record("stage", Duration::millisF(ms));
    EXPECT_EQ(m.count("stage"), 4u);
    EXPECT_DOUBLE_EQ(m.mean("stage"), 25.0);
    EXPECT_DOUBLE_EQ(m.min("stage"), 10.0);
    EXPECT_DOUBLE_EQ(m.max("stage"), 40.0);
    // rank = p/100 * (n-1): p50 of 4 samples interpolates halfway
    // between the 2nd and 3rd.
    EXPECT_DOUBLE_EQ(m.percentile("stage", 50.0), 25.0);
    EXPECT_DOUBLE_EQ(m.percentile("stage", 25.0), 17.5);
    EXPECT_NEAR(m.stddev("stage"), 12.9099444874, 1e-9);
    EXPECT_EQ(m.count("absent"), 0u);
}

TEST(MetricRegistry, MergeFoldsAllFamilies)
{
    MetricRegistry a;
    a.incr("frames", 2);
    a.setGauge("worst", 1.0);
    a.record("total", Duration::millisF(10.0));

    MetricRegistry b;
    b.incr("frames", 3);
    b.setGauge("worst", 3.0);
    b.record("total", Duration::millisF(30.0));

    a.merge(b);
    EXPECT_EQ(a.counter("frames"), 5u);
    EXPECT_DOUBLE_EQ(a.gauge("worst"), 3.0);
    EXPECT_EQ(a.count("total"), 2u);
    EXPECT_DOUBLE_EQ(a.mean("total"), 20.0);
}

TEST(MetricRegistry, FingerprintIndependentOfShardGrouping)
{
    // The same samples split 1 / 2 / 8 ways and merged in canonical
    // order fingerprint identically: the fingerprint hashes sorted
    // samples and digest buckets, never insertion order.
    auto build = [](std::size_t shards) {
        std::vector<MetricRegistry> parts(shards);
        for (int i = 0; i < 64; ++i) {
            MetricRegistry &p = parts[static_cast<std::size_t>(i) % shards];
            p.incr("frames");
            p.record("total", Duration::millisF(100.0 + 3.0 * i));
        }
        MetricRegistry merged;
        for (const MetricRegistry &p : parts)
            merged.merge(p);
        return merged.fingerprint();
    };
    const std::uint64_t one = build(1);
    EXPECT_EQ(build(2), one);
    EXPECT_EQ(build(8), one);
}

TEST(MetricRegistry, FingerprintPinnedOverEdgeValuedSamples)
{
    // Zero, negative and sub-1e-12 samples all fold into the digest's
    // zero bucket; huge ones land in the top buckets. The pin was taken
    // when the registry stored a QuantileDigest beside every histogram,
    // so the buckets fingerprint() now derives from the samples must
    // hash exactly as the stored digest's did.
    const std::vector<double> edges = {
        0.0, -1.0, -250.5, -1e-300, 5e-324, 1e-300, 1e-13,
        9.9e-13, 1e-12, 1.0, 1e9, 1e300, 1.7e308};
    auto build = [&](std::size_t shards) {
        std::vector<MetricRegistry> parts(shards);
        for (std::size_t i = 0; i < 5 * edges.size(); ++i) {
            MetricRegistry &p = parts[i % shards];
            p.recordValue("edge", edges[(7 * i) % edges.size()]);
            p.recordValue("zeros", i % 2 == 0 ? 0.0 : -static_cast<double>(i));
        }
        MetricRegistry merged;
        for (const MetricRegistry &p : parts)
            merged.merge(p);
        return merged.fingerprint();
    };
    EXPECT_EQ(build(1), 0xac37fc2c0d3df23fULL);
    EXPECT_EQ(build(2), 0xac37fc2c0d3df23fULL);
    EXPECT_EQ(build(8), 0xac37fc2c0d3df23fULL);
}

TEST(MetricRegistry, FingerprintInsertionOrderIndependent)
{
    MetricRegistry fwd;
    MetricRegistry rev;
    for (int i = 0; i < 10; ++i) {
        fwd.recordValue("v", static_cast<double>(i));
        rev.recordValue("v", static_cast<double>(9 - i));
    }
    EXPECT_EQ(fwd.fingerprint(), rev.fingerprint());
}

TEST(MetricRegistry, SummaryFormat)
{
    MetricRegistry m;
    m.record("total", Duration::millisF(10.0));
    m.record("total", Duration::millisF(20.0));
    EXPECT_EQ(m.summary(), "total: best=10ms mean=15ms p99=19.9ms\n");
}

TEST(MetricRegistry, ToJsonStableShape)
{
    MetricRegistry m;
    m.incr("frames", 2);
    m.setGauge("level", 1.5);
    m.record("total", Duration::millisF(10.0));
    std::ostringstream os;
    m.toJson(os);
    EXPECT_EQ(os.str(),
              "{\"counters\":{\"frames\":2},\"gauges\":{\"level\":1.5},"
              "\"histograms\":{\"total\":{\"count\":1,\"mean\":10,"
              "\"min\":10,\"max\":10,\"p50\":10,\"p99\":10}}}");
}

TEST(MetricRegistry, EmptyAndClear)
{
    MetricRegistry m;
    EXPECT_TRUE(m.empty());
    m.incr("x");
    EXPECT_FALSE(m.empty());
    m.clear();
    EXPECT_TRUE(m.empty());
}

TEST(MetricRegistry, RecordingByHandleMatchesRecordingByName)
{
    // The dataflow executor's pattern: intern once, record by handle.
    // The registry it fills must equal one filled by name, sample for
    // sample, through clear(), merges, and moves out of it.
    const std::vector<std::string> names{"perception", "queue:perception",
                                         "total", "planning"};
    MetricRegistry by_name, by_handle;
    std::vector<HistogramId> ids;
    for (const std::string &n : names)
        ids.push_back(by_handle.histogramId(n));
    // Interning creates nothing, and interning again is the same handle.
    EXPECT_TRUE(by_handle.empty());
    EXPECT_EQ(by_handle.histogramId("total"), ids[2]);

    const auto fill = [&](int round) {
        for (int i = 0; i < 40; ++i) {
            const std::size_t k = static_cast<std::size_t>((i * 7 + round) % 3);
            const Duration d = Duration::micros(137 * i + round);
            by_name.record(names[k], d);
            by_handle.record(ids[k], d);
        }
        by_name.recordTotal(Duration::millis(round));
        by_handle.record(ids[2], Duration::millis(round));
    };
    const auto same = [&] {
        EXPECT_EQ(by_handle.fingerprint(), by_name.fingerprint());
        EXPECT_EQ(by_handle.histogramNames(), by_name.histogramNames());
        std::ostringstream a, b;
        by_name.toJson(a);
        by_handle.toJson(b);
        EXPECT_EQ(a.str(), b.str());
    };
    fill(1);
    same();
    // "planning" was interned but never recorded: it does not exist.
    EXPECT_EQ(by_handle.count("planning"), 0u);

    by_name.clear();
    by_handle.clear();
    fill(2);
    same();

    // Merging grows the map; the handles keep recording into it.
    MetricRegistry other;
    other.record("queue:perception", Duration::micros(5));
    other.record("extra", Duration::micros(9));
    by_name.merge(other);
    by_handle.merge(other);
    fill(3);
    same();

    // A copy takes the contents and no handles: the original keeps
    // recording into itself, and the copy stays as it was.
    const MetricRegistry copied = by_handle;
    const std::uint64_t copied_print = copied.fingerprint();
    fill(7);
    same();
    EXPECT_EQ(copied.fingerprint(), copied_print);
    EXPECT_NE(by_handle.fingerprint(), copied_print);

    // A move takes the contents; the moved-from registry keeps its
    // handles and records into itself again.
    MetricRegistry taken_by_name = std::move(by_name);
    MetricRegistry taken_by_handle = std::move(by_handle);
    EXPECT_EQ(taken_by_handle.fingerprint(), taken_by_name.fingerprint());
    EXPECT_TRUE(by_handle.empty());
    fill(4);
    same();
    EXPECT_EQ(taken_by_handle.fingerprint(), taken_by_name.fingerprint());

    // So does a registry that a copy or a move was assigned into.
    by_name = taken_by_name;
    by_handle = taken_by_handle;
    fill(5);
    same();
    by_name = std::move(taken_by_name);
    by_handle = std::move(taken_by_handle);
    fill(6);
    same();
}

} // namespace
} // namespace sov::obs
