#include <gtest/gtest.h>

#include "fault/stage_faults.h"
#include "runtime/dataflow.h"

namespace sov::fault {
namespace {

using runtime::DataflowExecutor;
using runtime::StageGraph;
using runtime::StagePolicy;

/** Two-stage cpu pipeline: a (10 ms) -> b (10 ms). */
StageGraph
twoStageGraph()
{
    StageGraph g;
    const auto a = g.addFixed("a", "cpu", Duration::millisF(10.0));
    g.addFixed("b", "cpu", Duration::millisF(10.0), {a});
    return g;
}

FaultSpec
stageFault(const std::string &name, const std::string &stage,
           FaultMode mode)
{
    FaultSpec spec;
    spec.name = name;
    spec.target = FaultTarget::PipelineStage;
    spec.mode = mode;
    spec.stage = stage;
    return spec;
}

TEST(StageFaults, InstallWrapsOnlyNamedStages)
{
    StageGraph g = twoStageGraph();
    FaultPlan plan(Rng(1));
    plan.add(stageFault("b-crash", "b", FaultMode::Crash));

    Simulator sim;
    const std::size_t wrapped =
        installStageFaults(g, plan, [&sim] { return sim.now(); });
    EXPECT_EQ(wrapped, 1u);
    EXPECT_STREQ(g.executor(g.findStage("b")).kind(), "fault-injected");
    EXPECT_STREQ(g.executor(g.findStage("a")).kind(), "fixed");
}

TEST(StageFaultsDeathTest, InstallRejectsSensorModes)
{
    // A stage produces no sample to drop, freeze or corrupt.
    for (const FaultMode mode :
         {FaultMode::Dropout, FaultMode::Freeze, FaultMode::Corruption}) {
        StageGraph g = twoStageGraph();
        FaultPlan plan(Rng(1));
        plan.add(stageFault("b-sensor-mode", "b", mode));
        EXPECT_DEATH(installStageFaults(g, plan, {}),
                     "stage fault 'b-sensor-mode' has sensor mode")
            << toString(mode);
    }
}

TEST(StageFaults, CrashAbandonsFrameEvenUnsupervised)
{
    // A crash is a hard failure: with no watchdog policy there is no
    // retry, the frame is abandoned and no completion result emerges.
    StageGraph g = twoStageGraph();
    FaultPlan plan(Rng(1));
    FaultSpec crash = stageFault("a-crash", "a", FaultMode::Crash);
    crash.latency = Duration::millisF(5.0); // detection time
    plan.add(crash);

    Simulator sim;
    installStageFaults(g, plan, [&sim] { return sim.now(); });
    DataflowExecutor exec(sim, g);
    bool failed_seen = false;
    exec.releaseFrame([&](const runtime::FrameTrace &t) {
        failed_seen = t.failed;
    });
    sim.run();

    EXPECT_TRUE(failed_seen);
    EXPECT_EQ(exec.framesFailed(), 1u);
    EXPECT_EQ(exec.stageCrashes(), 1u);
    EXPECT_EQ(exec.stageRetries(), 0u);
}

TEST(StageFaults, WatchdogRetriesCrashUntilExhausted)
{
    StageGraph g = twoStageGraph();
    FaultPlan plan(Rng(1));
    plan.add(stageFault("a-crash", "a", FaultMode::Crash));

    Simulator sim;
    installStageFaults(g, plan, [&sim] { return sim.now(); });
    DataflowExecutor exec(sim, g);
    StagePolicy policy;
    policy.max_retries = 2;
    exec.setStagePolicy(policy);
    exec.releaseFrame();
    sim.run();

    // 1 original attempt + 2 retries, all crashing (p = 1).
    EXPECT_EQ(exec.stageCrashes(), 3u);
    EXPECT_EQ(exec.stageRetries(), 2u);
    EXPECT_EQ(exec.framesFailed(), 1u);
    EXPECT_EQ(exec.framesCompleted(), 1u); // resolved, not stuck
}

TEST(StageFaults, WatchdogTruncatesHang)
{
    StageGraph g = twoStageGraph();
    FaultPlan plan(Rng(1));
    plan.add(stageFault("a-hang", "a", FaultMode::Hang));

    Simulator sim;
    installStageFaults(g, plan, [&sim] { return sim.now(); });
    DataflowExecutor exec(sim, g);
    StagePolicy policy;
    policy.timeout = Duration::millisF(50.0);
    exec.setStagePolicy(policy);
    exec.releaseFrame();
    sim.run();

    EXPECT_EQ(exec.stageTimeouts(), 1u);
    EXPECT_EQ(exec.framesFailed(), 1u);
    // The watchdog killed the hang at the timeout: the run resolves at
    // 50 ms instead of wedging for the injector's hang time.
    EXPECT_DOUBLE_EQ((sim.now() - Timestamp::origin()).toMillis(), 50.0);
}

TEST(StageFaults, UnsupervisedHangWedgesThePipeline)
{
    StageGraph g = twoStageGraph();
    FaultPlan plan(Rng(1));
    plan.add(stageFault("a-hang", "a", FaultMode::Hang));

    Simulator sim;
    installStageFaults(g, plan, [&sim] { return sim.now(); });
    DataflowExecutor exec(sim, g);
    exec.releaseFrame();
    sim.runUntil(Timestamp::seconds(10.0));

    EXPECT_EQ(exec.framesCompleted(), 0u);
    EXPECT_EQ(exec.framesInFlight(), 1u);
}

TEST(StageFaults, LatencyMultiplierScalesStage)
{
    StageGraph g = twoStageGraph();
    FaultPlan plan(Rng(1));
    FaultSpec slow = stageFault("a-slow", "a", FaultMode::LatencyMultiplier);
    slow.multiplier = 3.0;
    plan.add(slow);

    Simulator sim;
    installStageFaults(g, plan, [&sim] { return sim.now(); });
    DataflowExecutor exec(sim, g);
    Duration latency;
    exec.releaseFrame([&](const runtime::FrameTrace &t) {
        latency = t.latency();
    });
    sim.run();

    // a: 10 ms * 3 = 30 ms, then b: 10 ms.
    EXPECT_DOUBLE_EQ(latency.toMillis(), 40.0);
    EXPECT_EQ(exec.framesFailed(), 0u);
}

TEST(StageFaults, LatencySpikeAddsFixedDelay)
{
    StageGraph g = twoStageGraph();
    FaultPlan plan(Rng(1));
    FaultSpec spike = stageFault("b-spike", "b", FaultMode::LatencySpike);
    spike.latency = Duration::millisF(25.0);
    plan.add(spike);

    Simulator sim;
    installStageFaults(g, plan, [&sim] { return sim.now(); });
    DataflowExecutor exec(sim, g);
    Duration latency;
    exec.releaseFrame([&](const runtime::FrameTrace &t) {
        latency = t.latency();
    });
    sim.run();

    EXPECT_DOUBLE_EQ(latency.toMillis(), 45.0); // 10 + (10 + 25)
}

TEST(StageFaults, WindowedCrashHitsOnlyFramesInsideWindow)
{
    StageGraph g = twoStageGraph();
    FaultPlan plan(Rng(1));
    FaultSpec crash = stageFault("a-crash", "a", FaultMode::Crash);
    crash.window_end = Timestamp::millisF(50.0);
    plan.add(crash);

    Simulator sim;
    installStageFaults(g, plan, [&sim] { return sim.now(); });
    DataflowExecutor exec(sim, g);
    StagePolicy policy;
    policy.max_retries = 0;
    exec.setStagePolicy(policy);

    bool first_failed = false;
    bool second_failed = true;
    exec.releaseFrame([&](const runtime::FrameTrace &t) {
        first_failed = t.failed;
    });
    sim.schedule(Duration::millisF(100.0), [&] {
        exec.releaseFrame([&](const runtime::FrameTrace &t) {
            second_failed = t.failed;
        });
    });
    sim.run();

    EXPECT_TRUE(first_failed);   // released at t = 0, inside window
    EXPECT_FALSE(second_failed); // released at 100 ms, window closed
    EXPECT_EQ(exec.framesCompleted(), 2u);
}

TEST(StageFaults, InjectorKeepsInnerStreamAlignment)
{
    // An installed-but-never-firing plan must not change the sampled
    // schedule: the injector always invokes the inner executor first.
    auto run_once = [](bool with_plan) {
        StageGraph g;
        Rng rng(1234);
        Rng sampler_rng = rng.fork("sampler");
        g.addAnalytic("a", "cpu", [sampler_rng](std::size_t) mutable {
            return Duration::millisF(5.0 + sampler_rng.uniform(0.0, 5.0));
        });
        Simulator sim;
        FaultPlan plan(Rng(77));
        if (with_plan) {
            FaultSpec crash = stageFault("a-crash", "a", FaultMode::Crash);
            crash.window_start = Timestamp::seconds(1e6); // never opens
            plan.add(crash);
            installStageFaults(g, plan, [&sim] { return sim.now(); });
        }
        DataflowExecutor exec(sim, g);
        Duration total;
        for (int i = 0; i < 16; ++i)
            exec.releaseFrame([&](const runtime::FrameTrace &t) {
                total += t.latency();
            });
        sim.run();
        return total;
    };
    EXPECT_EQ(run_once(false).ns(), run_once(true).ns());
}

} // namespace
} // namespace sov::fault
