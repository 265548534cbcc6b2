/**
 * @file
 * Golden schedules of the Fig. 5 pipeline: the single-shot (Fig. 10)
 * and pipelined (Sec. III-A) characterizations pinned to recorded
 * constants. Both are runAsync schedules that differ only in admission
 * window and release period (AsyncOptions::singleShot and
 * AsyncOptions::pipelined). The constants were recorded from the
 * dedicated single-shot / pipelined batch executor those
 * configurations replace, so they pin that equivalence bit for bit.
 */
#include <gtest/gtest.h>

#include "platform/platform_model.h"
#include "runtime/dataflow.h"
#include "sovpipe/fig5_graph.h"
#include "sovpipe/pipeline_model.h"

namespace sov {
namespace {

using runtime::AsyncOptions;
using runtime::DataflowExecutor;
using runtime::RunResult;
using runtime::StageGraph;

TEST(GoldenSchedules, SingleShotMeanGraphMatchesBenchDataflow)
{
    // BENCH_dataflow.json's sync_fingerprint: 64 single-shot frames of
    // the Fig. 5 graph at the calibrated stage means.
    const PlatformModel model;
    StageGraph graph;
    buildFig5Graph(graph, model, SovPipelineConfig{}, nullptr,
                   Fig5Latency::Mean);
    const RunResult run =
        DataflowExecutor::runAsync(graph, AsyncOptions::singleShot(64));
    EXPECT_EQ(run.fingerprint(), 0xfb5448b31b7b39ebULL);
    EXPECT_EQ(run.frames.front().latency().ns(), 167098758);
    EXPECT_EQ(run.steadyStateThroughputHz(), 5.984484935549311);
}

TEST(GoldenSchedules, PipelinedFig10Configuration)
{
    // bench_fig10_latency's runtime section: the sampled Fig. 5 graph
    // released at the 10 Hz sensor rate against a 300 ms deadline.
    const PlatformModel model;
    SovPipelineModel pipeline(model, SovPipelineConfig{}, Rng(42));
    AsyncOptions opts = AsyncOptions::pipelined(
        1000, Duration::seconds(1.0 / SovPipelineConfig{}.frame_rate_hz));
    opts.deadline = Duration::millisF(300.0);
    const RunResult run = DataflowExecutor::runAsync(pipeline.graph(), opts);
    EXPECT_EQ(run.fingerprint(), 0xa9ef93fc50c31d18ULL);
    EXPECT_EQ(run.deadline_misses, 482u);
    EXPECT_EQ(run.steadyStateThroughputHz(), 10.072254379931993);
}

TEST(GoldenSchedules, CharacterizeOutputsExact)
{
    const PlatformModel model;
    SovPipelineModel pipeline(model, SovPipelineConfig{}, Rng(42));
    const PipelineStats stats = pipeline.characterize(256);
    EXPECT_EQ(stats.best_case.ns(), 146161156);
    EXPECT_EQ(stats.mean.ns(), 176904360);
    EXPECT_EQ(stats.p99.ns(), 797276357);
    EXPECT_EQ(stats.throughput_hz, 10.0);
    EXPECT_EQ(stats.async_throughput_hz, 11.757731887428607);
    EXPECT_EQ(stats.metrics.fingerprint(), 0x54811b30c4ce162cULL);
    EXPECT_EQ(stats.metrics.mean("sensing"), 78.81664014062504);
    EXPECT_EQ(stats.metrics.mean("perception"), 95.04391319531247);
    EXPECT_EQ(stats.metrics.mean("planning"), 3.0438066914062509);

    // The breakdown and single-frame draws continue the same sampled
    // stream, so they pin the single-shot driver's draw order too.
    EXPECT_EQ(pipeline.perceptionTaskBreakdown(64).fingerprint(),
              0x084357591dc9d567ULL);
    const FrameLatency frame = pipeline.sampleFrame();
    EXPECT_EQ(frame.sensing.ns(), 71821201);
    EXPECT_EQ(frame.perception.ns(), 74124248);
    EXPECT_EQ(frame.planning.ns(), 3218195);
}

} // namespace
} // namespace sov
