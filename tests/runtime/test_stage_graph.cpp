#include <gtest/gtest.h>

#include "runtime/stage_graph.h"

namespace sov::runtime {
namespace {

// The Fig. 5 shape with fixed durations: sensing feeds depth,
// detection and localization; tracking follows detection; planning
// joins both branches.
StageGraph
makeFig5(Duration sense, Duration depth, Duration det, Duration track,
         Duration loc, Duration plan)
{
    StageGraph g;
    const StageId s = g.addFixed("sensing", "sensor-fpga", sense);
    const StageId d = g.addFixed("depth", "scene", depth, {s});
    const StageId o = g.addFixed("detection", "scene", det, {s});
    const StageId t = g.addFixed("tracking", "cpu", track, {o});
    const StageId l = g.addFixed("localization", "loc", loc, {s});
    g.addFixed("planning", "cpu", plan, {d, t, l});
    return g;
}

TEST(StageGraph, ConstructionAndLookup)
{
    StageGraph g = makeFig5(Duration::millis(50), Duration::millis(32),
                            Duration::millis(54), Duration::millis(1),
                            Duration::millis(24), Duration::millis(3));
    EXPECT_EQ(g.size(), 6u);
    EXPECT_EQ(g.findStage("sensing"), 0u);
    EXPECT_EQ(g.findStage("planning"), 5u);
    EXPECT_EQ(g.stage(2).name, "detection");
    EXPECT_EQ(g.stage(2).resource, "scene");
    EXPECT_EQ(g.stageNames().size(), 6u);
    // depth and detection share the scene lane; four lanes total.
    const auto resources = g.resources();
    EXPECT_EQ(resources.size(), 4u);
}

TEST(StageGraph, DependentsAreInverseOfDeps)
{
    StageGraph g = makeFig5(Duration::millis(50), Duration::millis(32),
                            Duration::millis(54), Duration::millis(1),
                            Duration::millis(24), Duration::millis(3));
    // sensing fans out to depth, detection, localization.
    const auto &fanout = g.dependents(g.findStage("sensing"));
    EXPECT_EQ(fanout.size(), 3u);
    // planning is a sink.
    EXPECT_TRUE(g.dependents(g.findStage("planning")).empty());
    // tracking's only dependent is planning.
    const auto &after_tracking = g.dependents(g.findStage("tracking"));
    ASSERT_EQ(after_tracking.size(), 1u);
    EXPECT_EQ(after_tracking[0], g.findStage("planning"));
}

TEST(StageGraph, CriticalPathTakesSlowerBranch)
{
    StageGraph g = makeFig5(Duration::millis(50), Duration::millis(32),
                            Duration::millis(54), Duration::millis(1),
                            Duration::millis(24), Duration::millis(3));
    // 50 + max(54 + 1, 32, 24) + 3 = 108 (unlimited resources, so
    // depth does not serialize behind detection).
    EXPECT_DOUBLE_EQ(g.criticalPathLatency().toMillis(), 108.0);
}

TEST(StageGraph, AnalyticExecutorSeesFrameIndex)
{
    StageGraph g;
    g.addAnalytic("var", "cpu", [](std::size_t f) {
        return Duration::millis(10 + static_cast<std::int64_t>(f));
    });
    EXPECT_DOUBLE_EQ(g.criticalPathLatency(0).toMillis(), 10.0);
    EXPECT_DOUBLE_EQ(g.criticalPathLatency(5).toMillis(), 15.0);
}

TEST(StageGraph, ExecutorKinds)
{
    StageGraph g;
    g.addFixed("a", "cpu", Duration::millis(1));
    g.addAnalytic("b", "cpu", [](std::size_t) { return Duration::zero(); });
    g.addKernel("c", "cpu", [](std::size_t) {});
    EXPECT_STREQ(g.executor(0).kind(), "fixed");
    EXPECT_STREQ(g.executor(1).kind(), "analytic");
    EXPECT_STREQ(g.executor(2).kind(), "kernel");
}

TEST(StageGraph, KernelExecutorMeasuresWallClock)
{
    // The kernel executor maps measured host time into model time.
    int runs = 0;
    KernelExecutor exec(
        [&runs](std::size_t) {
            volatile double acc = 0.0;
            for (int i = 0; i < 20000; ++i)
                acc = acc + static_cast<double>(i) * 1e-9;
            ++runs;
        },
        2.0);
    const Duration d = exec.execute(0);
    EXPECT_EQ(runs, 1);
    EXPECT_GT(d, Duration::zero());
    EXPECT_GT(exec.lastMeasured(), Duration::zero());
    // time_scale = 2 doubles the measurement.
    EXPECT_EQ(d.ns(), (exec.lastMeasured() * 2.0).ns());
}

} // namespace
} // namespace sov::runtime
