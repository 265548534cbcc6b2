/**
 * @file
 * Self-tests of the benchmark's own arithmetic: percentiles and their
 * refusal rule, backlog-growth detection, max_jobs_per_s selection and
 * self-time subtraction. Run by perfbench/run.py after every build.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "measure.h"

using namespace perfbench;

namespace {

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

Span
span(std::uint32_t name, std::uint32_t id, std::uint32_t parent,
     std::int64_t start, std::int64_t end)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    return s;
}

RatePoint
point(double rate, double ttfr_ms, double failed = 0.0,
      bool growing = false)
{
    RatePoint p;
    p.rate = rate;
    p.ttfr.value = ttfr_ms;
    p.ttfr.samples = 200;
    p.ttfr.beyond = 20;
    p.ttfr.valid = true;
    p.failed_frac = failed;
    p.backlog_growing = growing;
    return p;
}

} // namespace

TEST(Percentile, NearestRankWithSampleCount)
{
    const Percentile p50 = percentile(oneTo(100), 50.0);
    EXPECT_EQ(p50.value, 50.0);
    EXPECT_EQ(p50.samples, 100u);
    EXPECT_EQ(p50.beyond, 50u);
    EXPECT_TRUE(p50.valid);
    const Percentile p90 = percentile(oneTo(100), 90.0);
    EXPECT_EQ(p90.value, 90.0);
    EXPECT_EQ(p90.beyond, 10u);
    EXPECT_TRUE(p90.valid);
}

TEST(Percentile, RefusedWithFewerThanTenBeyond)
{
    // p99 of 999 samples: rank 990, nine samples beyond -> refused.
    const Percentile thin = percentile(oneTo(999), 99.0);
    EXPECT_EQ(thin.beyond, 9u);
    EXPECT_FALSE(thin.valid);
    // 1000 samples leave exactly ten beyond -> accepted.
    const Percentile ok = percentile(oneTo(1000), 99.0);
    EXPECT_EQ(ok.value, 990.0);
    EXPECT_EQ(ok.beyond, 10u);
    EXPECT_TRUE(ok.valid);
    EXPECT_FALSE(percentile({}, 50.0).valid);
    EXPECT_FALSE(percentile(oneTo(19), 50.0).valid);
}

TEST(Percentile, OrderIndependent)
{
    std::vector<double> v = oneTo(50);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(percentile(v, 50.0).value, 25.0);
}

TEST(Backlog, FlatNoisyBacklogIsNotGrowing)
{
    std::vector<BacklogSample> s;
    for (int i = 0; i < 400; ++i)
        s.push_back({i * 0.005, (i % 7 == 0) ? 16.0 : 0.0});
    EXPECT_NEAR(backlogSlope(s), 0.0, 1.0);
    EXPECT_FALSE(backlogGrowing(s, 32.0));
}

TEST(Backlog, LinearGrowthIsDetected)
{
    std::vector<BacklogSample> s;
    for (int i = 0; i < 400; ++i)
        s.push_back({i * 0.005, 30.0 * i * 0.005});
    EXPECT_NEAR(backlogSlope(s), 30.0, 1e-9);
    EXPECT_TRUE(backlogGrowing(s, 32.0));  // 60 shards over 2 s
    EXPECT_FALSE(backlogGrowing(s, 64.0));
}

TEST(Backlog, LateSpikeAloneIsNotGrowth)
{
    // One big job landing at the very end moves the endpoints by 16
    // shards but barely moves the trend.
    std::vector<BacklogSample> s;
    for (int i = 0; i < 400; ++i)
        s.push_back({i * 0.005, i >= 398 ? 16.0 : 0.0});
    EXPECT_FALSE(backlogGrowing(s, 8.0));
    EXPECT_FALSE(backlogGrowing({}, 1.0));
}

TEST(SaturatedRate, MedianOfSaturatedBins)
{
    // 2 s at 100 samples/s: 1000 units/s, except a 0.25 s stall where
    // nothing completes, and an unsaturated first half second.
    std::vector<BacklogSample> s;
    std::vector<double> done;
    double total = 0.0;
    for (int i = 0; i <= 200; ++i) {
        const double t = i * 0.01;
        const bool stalled = t > 1.0 && t <= 1.25;
        if (i > 0 && !stalled)
            total += 10.0;
        s.push_back({t, t < 0.5 ? 2.0 : 50.0});
        done.push_back(total);
    }
    EXPECT_NEAR(saturatedRate(s, done, 0.25, 8.0), 1000.0, 1e-6);
    // Nothing saturated: no rate.
    EXPECT_EQ(saturatedRate(s, done, 0.25, 1000.0), 0.0);
    EXPECT_EQ(saturatedRate({}, {}, 0.25, 1.0), 0.0);
}

TEST(MaxRate, HighestRateMeetingEveryLimit)
{
    const std::vector<RatePoint> pts = {point(40, 10), point(80, 20),
                                        point(160, 45), point(320, 400)};
    EXPECT_EQ(maxSustainedRate(pts, 50.0, 0.0), 160.0);
    EXPECT_EQ(maxSustainedRate(pts, 500.0, 0.0), 320.0);
    EXPECT_EQ(maxSustainedRate(pts, 5.0, 0.0), 0.0);
}

TEST(MaxRate, FailuresBacklogAndRefusalsDisqualify)
{
    EXPECT_EQ(maxSustainedRate({point(40, 10), point(80, 10, 0.01)}, 50.0,
                               0.0),
              40.0);
    EXPECT_EQ(maxSustainedRate({point(40, 10), point(80, 10, 0.0, true)},
                               50.0, 0.0),
              40.0);
    RatePoint refused = point(80, 10);
    refused.ttfr.valid = false;
    EXPECT_EQ(maxSustainedRate({point(40, 10), refused}, 50.0, 0.0), 40.0);
    // A failing rate caps the knee even if a higher rate passes again.
    EXPECT_EQ(maxSustainedRate({point(320, 10), point(40, 10),
                                point(80, 90), point(160, 10)},
                               50.0, 0.0),
              40.0);
    EXPECT_EQ(maxSustainedRate({point(40, INFINITY)}, 50.0, 0.0), 0.0);
}

TEST(SelfTime, ChildrenAreSubtractedOnce)
{
    const std::vector<std::string> names = {"frame", "stage", "kernel"};
    // frame [0,100): two stages [10,40) and [30,70) overlap by 10;
    // the first stage holds a kernel [15,35).
    const std::vector<Span> spans = {
        span(0, 1, 0, 0, 100), span(1, 2, 1, 10, 40),
        span(1, 3, 1, 30, 70), span(2, 4, 2, 15, 35)};
    const std::vector<LayerRow> rows = selfTimes(spans, names);
    ASSERT_EQ(rows.size(), 3u);
    // Sorted by name: frame, kernel, stage.
    EXPECT_EQ(rows[0].name, "frame");
    EXPECT_DOUBLE_EQ(rows[0].total_ns, 100.0);
    EXPECT_DOUBLE_EQ(rows[0].self_ns, 40.0); // 100 - union [10,70)
    EXPECT_EQ(rows[1].name, "kernel");
    EXPECT_DOUBLE_EQ(rows[1].self_ns, 20.0);
    EXPECT_EQ(rows[2].name, "stage");
    EXPECT_EQ(rows[2].calls, 2u);
    EXPECT_DOUBLE_EQ(rows[2].total_ns, 70.0);
    EXPECT_DOUBLE_EQ(rows[2].self_ns, 50.0); // 30 - 20 + 40
}

TEST(SelfTime, ChildOutsideParentIsClipped)
{
    const std::vector<std::string> names = {"p", "c"};
    const std::vector<Span> spans = {span(0, 1, 0, 100, 200),
                                     span(1, 2, 1, 150, 260)};
    const std::vector<LayerRow> rows = selfTimes(spans, names);
    EXPECT_EQ(rows[1].name, "p");
    EXPECT_DOUBLE_EQ(rows[1].self_ns, 50.0);
}

TEST(SpanRecorder, NestingAndDisabledRecorder)
{
    SpanRecorder on(true);
    const std::uint32_t outer = on.intern("outer");
    const std::uint32_t inner = on.intern("inner");
    EXPECT_EQ(on.intern("outer"), outer);
    {
        SpanScope a(on, outer, 7);
        SpanScope b(on, inner, 7);
    }
    ASSERT_EQ(on.spans().size(), 2u);
    EXPECT_EQ(on.spans()[1].parent, on.spans()[0].id);
    EXPECT_EQ(on.spans()[1].op, 7u);
    EXPECT_LE(on.spans()[0].start_ns, on.spans()[1].start_ns);
    EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);

    SpanRecorder off(false);
    {
        SpanScope a(off, off.intern("outer"), 1);
    }
    EXPECT_TRUE(off.spans().empty());
}
