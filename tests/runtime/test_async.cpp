#include <gtest/gtest.h>

#include <vector>

#include "core/thread_pool.h"
#include "obs/trace.h"
#include "runtime/dataflow.h"
#include "runtime/sched_core.h"

namespace sov::runtime {
namespace {

// runAsync is the one batch driver: the admission window and release
// period select single-shot (window 1, period 0), pipelined (window =
// frames, period > 0) or overlapped (a small window) execution. These
// tests pin the first two against schedules recorded from the former
// dedicated single-shot / pipelined executor, then check the overlap
// window itself: throughput, backpressure, recycling and payload
// integrity.
//
// The Fig. 5 DAG at the paper's mean stage durations. Single-shot
// frame latency: 50 + (32 + 54 + 1) + 3 = 140 ms, since depth and
// detection share the scene lane; that 86 ms lane is the pipelined
// bottleneck.
constexpr double kSense = 50.0, kDepth = 32.0, kDet = 54.0, kTrack = 1.0,
                 kLoc = 24.0, kPlan = 3.0;

StageGraph
fig5StageGraph()
{
    StageGraph g;
    const StageId s =
        g.addFixed("sensing", "sensor-fpga", Duration::millisF(kSense));
    const StageId d =
        g.addFixed("depth", "scene", Duration::millisF(kDepth), {s});
    const StageId o =
        g.addFixed("detection", "scene", Duration::millisF(kDet), {s});
    const StageId t =
        g.addFixed("tracking", "cpu", Duration::millisF(kTrack), {o});
    const StageId l =
        g.addFixed("localization", "loc", Duration::millisF(kLoc), {s});
    g.addFixed("planning", "cpu", Duration::millisF(kPlan), {d, t, l});
    return g;
}

TEST(AsyncDataflow, OverlapOffBitIdenticalToSyncExecutor)
{
    // Window 1, zero period: each frame releases at its predecessor's
    // completion, reproducing the single-shot executor's recorded
    // 24-frame schedule bit for bit.
    StageGraph graph = fig5StageGraph();
    const RunResult run =
        DataflowExecutor::runAsync(graph, AsyncOptions::singleShot(24));

    ASSERT_EQ(run.frames.size(), 24u);
    EXPECT_EQ(run.frames[0].release, Timestamp::origin());
    for (std::size_t f = 1; f < run.frames.size(); ++f)
        EXPECT_EQ(run.frames[f].release, run.frames[f - 1].finish);
    EXPECT_EQ(run.fingerprint(), 0x61b58eb149709f2eULL);
}

TEST(AsyncDataflow, PeriodicAsyncWithWideWindowMatchesPipelinedRun)
{
    // With the admission window out of the way, the periodic driver
    // releases frame f at f * period exactly — the recorded 16-frame
    // pipelined schedule.
    StageGraph graph = fig5StageGraph();
    const Duration period = Duration::millis(100);
    const RunResult run = DataflowExecutor::runAsync(
        graph, AsyncOptions::pipelined(16, period));

    ASSERT_EQ(run.frames.size(), 16u);
    for (std::size_t f = 0; f < run.frames.size(); ++f) {
        EXPECT_EQ(run.frames[f].release.ns(),
                  (period * static_cast<double>(f)).ns());
    }
    EXPECT_EQ(run.fingerprint(), 0xe827b08a6b96c0b6ULL);
}

TEST(AsyncDataflow, ZeroAdmissionWindowIsRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    StageGraph graph = fig5StageGraph();
    AsyncOptions opts;
    opts.frames = 4;
    opts.max_in_flight = 0;
    EXPECT_DEATH(DataflowExecutor::runAsync(graph, opts),
                 "max_in_flight >= 1");
}

TEST(AsyncDataflow, FingerprintsThreadCountIndependent)
{
    // The async characterization is a deterministic simulation: running
    // it from worker threads of a 1-, 2- or 8-thread pool must yield
    // bit-identical schedule fingerprints.
    constexpr std::size_t kJobs = 4;
    std::vector<std::vector<std::uint64_t>> per_pool;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        std::vector<std::uint64_t> fps(kJobs, 0);
        pool.parallelFor(kJobs, [&fps](std::size_t j) {
            StageGraph graph = fig5StageGraph();
            AsyncOptions opts;
            opts.frames = 8 + j;
            opts.max_in_flight = 1 + j % 3;
            fps[j] = DataflowExecutor::runAsync(graph, opts).fingerprint();
        });
        per_pool.push_back(std::move(fps));
    }
    EXPECT_EQ(per_pool[0], per_pool[1]);
    EXPECT_EQ(per_pool[1], per_pool[2]);
}

TEST(AsyncDataflow, DisabledTracingIsBitTransparent)
{
    // Attaching a recorder must not perturb the schedule, and not
    // attaching one must be free of any trace side effects.
    const std::size_t frames = 12;
    StageGraph bare_graph = fig5StageGraph();
    AsyncOptions bare;
    bare.frames = frames;
    bare.max_in_flight = 3;
    const RunResult without =
        DataflowExecutor::runAsync(bare_graph, bare);

    obs::TraceRecorder recorder;
    StageGraph traced_graph = fig5StageGraph();
    AsyncOptions traced = bare;
    traced.trace = &recorder;
    const RunResult with =
        DataflowExecutor::runAsync(traced_graph, traced);

    EXPECT_EQ(without.fingerprint(), with.fingerprint());
    EXPECT_GT(recorder.eventCount(), 0u);
}

TEST(AsyncDataflow, SelfPacedThroughputBeatsSingleShotBy1_5x)
{
    const std::size_t frames = 64;
    // Single-shot: the 140 ms critical path = 7.14 Hz, as recorded
    // from the single-shot executor.
    constexpr double kSingleShotHz = 7.1428571428571432;
    StageGraph single_graph = fig5StageGraph();
    EXPECT_EQ(DataflowExecutor::runAsync(single_graph,
                                         AsyncOptions::singleShot(frames))
                  .steadyStateThroughputHz(),
              kSingleShotHz);

    StageGraph async_graph = fig5StageGraph();
    AsyncOptions async;
    async.frames = frames;
    async.max_in_flight = 3;
    const double async_hz =
        DataflowExecutor::runAsync(async_graph, async)
            .steadyStateThroughputHz();

    // Self-paced async saturates the 86 ms scene lane = 11.6 Hz — a
    // 1.63x win.
    EXPECT_GE(async_hz, 1.5 * kSingleShotHz);
}

TEST(AsyncDataflow, FramesActuallyOverlapAcrossTheWindow)
{
    StageGraph graph = fig5StageGraph();
    AsyncOptions opts;
    opts.frames = 8;
    opts.max_in_flight = 2;
    const RunResult run = DataflowExecutor::runAsync(graph, opts);

    // Frame f+1's sensing must start before frame f finishes (the
    // overlap the single-shot mode forbids).
    bool overlapped = false;
    for (std::size_t f = 0; f + 1 < run.frames.size(); ++f) {
        if (run.frames[f + 1].spans[0].start < run.frames[f].finish)
            overlapped = true;
    }
    EXPECT_TRUE(overlapped);
}

TEST(AsyncDataflow, BackpressureBoundsFramesInFlight)
{
    // Release far faster than the 86 ms bottleneck: admission must
    // defer due frames so at most `window` frames are ever in flight.
    StageGraph graph = fig5StageGraph();
    AsyncOptions opts;
    opts.frames = 16;
    opts.period = Duration::millis(10);
    opts.max_in_flight = 2;
    const RunResult run = DataflowExecutor::runAsync(graph, opts);

    ASSERT_EQ(run.frames.size(), opts.frames);
    for (std::size_t f = 0; f < run.frames.size(); ++f) {
        std::size_t in_flight = 1; // frame f itself
        for (std::size_t j = 0; j < f; ++j) {
            if (run.frames[j].finish > run.frames[f].release)
                ++in_flight;
        }
        EXPECT_LE(in_flight, opts.max_in_flight) << "frame " << f;
        // A deferred frame releases later than its nominal tick.
        EXPECT_GE(run.frames[f].release.ns(),
                  (Timestamp::origin() +
                   opts.period * static_cast<double>(f))
                      .ns());
    }
    // Throughput still saturates the bottleneck lane, not the period.
    EXPECT_NEAR(run.steadyStateThroughputHz(), 1000.0 / 86.0, 0.15);
}

TEST(AsyncDataflow, SteadyStateGrowsNoContainers)
{
    StageGraph graph = fig5StageGraph();
    AsyncOptions opts;
    opts.frames = 96;
    opts.max_in_flight = 3;
    opts.keep_traces = false;
    const RunResult run = DataflowExecutor::runAsync(graph, opts);
    EXPECT_EQ(run.frames.size(), 0u); // traces off
    EXPECT_EQ(run.finish_times.size(), opts.frames);
    EXPECT_GT(run.growth_events, 0u); // warmup did size the pools
    EXPECT_EQ(run.steady_growth_events, 0u);
}

TEST(AsyncDataflow, PayloadRingIsNotCorruptedByOverlap)
{
    // Kernel-style stages materialize per-frame payloads in a
    // double-buffered FramePayloadRing; with the admission window
    // capped at the ring depth, no consumer may ever observe another
    // frame's bytes.
    constexpr std::size_t kDepth = 2;
    constexpr std::size_t kWords = 256;
    FramePayloadRing ring(kDepth);
    std::vector<std::uint32_t *> payload(kDepth, nullptr);
    std::uint64_t mismatches = 0;

    StageGraph graph;
    const StageId produce = graph.addAnalytic(
        "produce", "sensor", [&](std::size_t frame) {
            auto *buf = ring.acquire(frame).alloc<std::uint32_t>(kWords);
            for (std::size_t i = 0; i < kWords; ++i)
                buf[i] = static_cast<std::uint32_t>(frame * 31 + i);
            payload[frame % kDepth] = buf;
            return Duration::millisF(4.0);
        });
    graph.addAnalytic(
        "consume", "cpu",
        [&](std::size_t frame) {
            const std::uint32_t *buf = payload[frame % kDepth];
            for (std::size_t i = 0; i < kWords; ++i) {
                if (buf[i] != static_cast<std::uint32_t>(frame * 31 + i))
                    ++mismatches;
            }
            return Duration::millisF(6.0);
        },
        {produce});

    AsyncOptions opts;
    opts.frames = 32;
    opts.max_in_flight = kDepth;
    opts.keep_traces = false;
    const RunResult run = DataflowExecutor::runAsync(graph, opts);

    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(run.steady_growth_events, 0u);
    // The ring warmed up once; rewinding per frame allocated nothing
    // beyond the two slot arenas' first blocks.
    const std::size_t warm = ring.systemAllocations();
    std::uint64_t second_mismatches = 0;
    StageGraph second;
    const StageId p2 = second.addAnalytic(
        "produce", "sensor", [&](std::size_t frame) {
            auto *buf = ring.acquire(frame).alloc<std::uint32_t>(kWords);
            for (std::size_t i = 0; i < kWords; ++i)
                buf[i] = static_cast<std::uint32_t>(frame * 7 + i);
            payload[frame % kDepth] = buf;
            return Duration::millisF(4.0);
        });
    second.addAnalytic(
        "consume", "cpu",
        [&](std::size_t frame) {
            const std::uint32_t *buf = payload[frame % kDepth];
            for (std::size_t i = 0; i < kWords; ++i) {
                if (buf[i] != static_cast<std::uint32_t>(frame * 7 + i))
                    ++second_mismatches;
            }
            return Duration::millisF(6.0);
        },
        {p2});
    DataflowExecutor::runAsync(second, opts);
    EXPECT_EQ(second_mismatches, 0u);
    EXPECT_EQ(ring.systemAllocations(), warm);
}

TEST(AsyncDataflow, SchedulerCoreRecyclesSlots)
{
    StageGraph graph = fig5StageGraph();
    Simulator sim;
    DataflowExecutor exec(sim, graph);
    for (int i = 0; i < 5; ++i) {
        exec.releaseFrame();
        sim.run();
    }
    EXPECT_EQ(exec.framesCompleted(), 5u);
    const std::uint64_t warm = exec.coreGrowthEvents();
    for (int i = 0; i < 50; ++i) {
        exec.releaseFrame();
        sim.run();
    }
    EXPECT_EQ(exec.framesCompleted(), 55u);
    EXPECT_EQ(exec.coreGrowthEvents(), warm);
}

} // namespace
} // namespace sov::runtime
