#include <gtest/gtest.h>

#include <cmath>

#include "fault/fault_plan.h"
#include "fault/sensor_faults.h"

namespace sov::fault {
namespace {

TEST(FaultChannel, ProbabilityOneAlwaysFires)
{
    FaultPlan plan(Rng(42));
    FaultSpec spec;
    spec.name = "always";
    spec.target = FaultTarget::Camera;
    spec.mode = FaultMode::Dropout;
    spec.probability = 1.0;
    FaultChannel &ch = plan.add(spec);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(ch.shouldInject(Timestamp::millisF(i * 10.0)));
    EXPECT_EQ(ch.injections(), 10u);
}

TEST(FaultChannel, ProbabilityZeroNeverFires)
{
    FaultPlan plan(Rng(42));
    FaultSpec spec;
    spec.name = "never";
    spec.probability = 0.0;
    FaultChannel &ch = plan.add(spec);
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(ch.shouldInject(Timestamp::millisF(i * 10.0)));
    EXPECT_EQ(ch.injections(), 0u);
}

TEST(FaultChannel, WindowGatesInjection)
{
    FaultPlan plan(Rng(42));
    FaultSpec spec;
    spec.name = "windowed";
    spec.probability = 1.0;
    spec.window_start = Timestamp::seconds(1.0);
    spec.window_end = Timestamp::seconds(2.0);
    FaultChannel &ch = plan.add(spec);
    EXPECT_FALSE(ch.shouldInject(Timestamp::millisF(999.0)));
    EXPECT_TRUE(ch.shouldInject(Timestamp::seconds(1.0)));
    EXPECT_TRUE(ch.shouldInject(Timestamp::millisF(1999.0)));
    // [start, end): the end bound is exclusive.
    EXPECT_FALSE(ch.shouldInject(Timestamp::seconds(2.0)));
}

TEST(FaultChannel, FractionalProbabilityIsDeterministicPerSeed)
{
    auto draw = [](std::uint64_t seed) {
        FaultPlan plan{Rng(seed)};
        FaultSpec spec;
        spec.name = "coin";
        spec.probability = 0.5;
        FaultChannel &ch = plan.add(spec);
        std::vector<bool> out;
        for (int i = 0; i < 64; ++i)
            out.push_back(ch.shouldInject(Timestamp::millisF(i * 1.0)));
        return out;
    };
    EXPECT_EQ(draw(7), draw(7));
    EXPECT_NE(draw(7), draw(8));
}

TEST(FaultChannel, ChannelsDrawIndependentStreams)
{
    // Adding a second channel must not change what the first draws.
    auto first_channel_draws = [](bool add_second) {
        FaultPlan plan(Rng(99));
        FaultSpec a;
        a.name = "a";
        a.probability = 0.5;
        FaultChannel &ch = plan.add(a);
        if (add_second) {
            FaultSpec b;
            b.name = "b";
            b.probability = 0.5;
            FaultChannel &other = plan.add(b);
            for (int i = 0; i < 32; ++i)
                other.shouldInject(Timestamp::millisF(i * 1.0));
        }
        std::vector<bool> out;
        for (int i = 0; i < 64; ++i)
            out.push_back(ch.shouldInject(Timestamp::millisF(i * 1.0)));
        return out;
    };
    EXPECT_EQ(first_channel_draws(false), first_channel_draws(true));
}

TEST(FaultChannel, CorruptionAddsNoiseOnlyWithSigma)
{
    FaultPlan plan(Rng(42));
    FaultSpec clean;
    clean.name = "clean";
    clean.mode = FaultMode::Corruption;
    clean.corruption_sigma = 0.0;
    EXPECT_DOUBLE_EQ(plan.add(clean).corrupt(3.5), 3.5);

    FaultSpec noisy;
    noisy.name = "noisy";
    noisy.mode = FaultMode::Corruption;
    noisy.corruption_sigma = 1.0;
    FaultChannel &ch = plan.add(noisy);
    bool moved = false;
    for (int i = 0; i < 8; ++i)
        moved = moved || ch.corrupt(3.5) != 3.5;
    EXPECT_TRUE(moved);
}

TEST(FaultPlan, FindMatchesTargetModeAndStage)
{
    FaultPlan plan(Rng(1));
    FaultSpec cam;
    cam.name = "cam-drop";
    cam.target = FaultTarget::Camera;
    cam.mode = FaultMode::Dropout;
    plan.add(cam);
    FaultSpec stage;
    stage.name = "planning-crash";
    stage.target = FaultTarget::PipelineStage;
    stage.mode = FaultMode::Crash;
    stage.stage = "planning";
    plan.add(stage);

    const auto cams = plan.channelsFor(FaultTarget::Camera);
    ASSERT_EQ(cams.size(), 1u);
    EXPECT_EQ(cams[0]->spec().mode, FaultMode::Dropout);
    const auto stages = plan.channelsFor(FaultTarget::PipelineStage);
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0]->spec().mode, FaultMode::Crash);
    EXPECT_EQ(stages[0]->spec().stage, "planning");
    EXPECT_TRUE(plan.channelsFor(FaultTarget::Radar).empty());
    EXPECT_EQ(plan.size(), 2u);
}

/** A spec that passes FaultPlan::add's checks. */
FaultSpec
validSpec()
{
    FaultSpec spec;
    spec.name = "valid";
    return spec;
}

TEST(FaultPlanDeathTest, RejectsWindowEndingBeforeItStarts)
{
    FaultPlan plan(Rng(1));
    FaultSpec spec = validSpec();
    spec.window_start = Timestamp::seconds(2.0);
    spec.window_end = Timestamp::seconds(1.0);
    EXPECT_DEATH(plan.add(spec), "window_end >= spec.window_start");
    // An empty window [t, t) is legal: it never fires.
    spec.window_end = spec.window_start;
    EXPECT_FALSE(plan.add(spec).shouldInject(spec.window_start));
}

TEST(FaultPlanDeathTest, RejectsNegativeLatency)
{
    FaultPlan plan(Rng(1));
    FaultSpec spec = validSpec();
    spec.latency = Duration::millisF(-1.0);
    EXPECT_DEATH(plan.add(spec), "latency >= Duration::zero");
}

TEST(FaultPlanDeathTest, RejectsNegativeOrNonFiniteMultiplier)
{
    FaultPlan plan(Rng(1));
    for (const double bad : {-0.5, std::nan(""), HUGE_VAL}) {
        FaultSpec spec = validSpec();
        spec.multiplier = bad;
        EXPECT_DEATH(plan.add(spec), "multiplier") << bad;
    }
}

TEST(FaultPlanDeathTest, RejectsNegativeOrNonFiniteCorruptionSigma)
{
    FaultPlan plan(Rng(1));
    for (const double bad : {-0.1, std::nan(""), HUGE_VAL}) {
        FaultSpec spec = validSpec();
        spec.corruption_sigma = bad;
        EXPECT_DEATH(plan.add(spec), "corruption_sigma") << bad;
    }
}

TEST(SensorFaultHub, NullPlanIsAlwaysClean)
{
    SensorFaultHub hub(nullptr);
    EXPECT_EQ(hub.size(), 0u);
    const SensorDisposition d =
        hub.evaluate(FaultTarget::Camera, Timestamp::origin());
    EXPECT_FALSE(d.any());
}

TEST(SensorFaultHub, FoldsChannelsIntoDisposition)
{
    FaultPlan plan(Rng(5));
    FaultSpec drop;
    drop.name = "radar-drop";
    drop.target = FaultTarget::Radar;
    drop.mode = FaultMode::Dropout;
    plan.add(drop);
    FaultSpec spike;
    spike.name = "radar-late";
    spike.target = FaultTarget::Radar;
    spike.mode = FaultMode::LatencySpike;
    spike.latency = Duration::millisF(40.0);
    plan.add(spike);

    SensorFaultHub hub(&plan);
    EXPECT_EQ(hub.size(), 2u);
    const SensorDisposition d =
        hub.evaluate(FaultTarget::Radar, Timestamp::origin());
    EXPECT_TRUE(d.drop);
    EXPECT_EQ(d.extra_latency, Duration::millisF(40.0));
    // Other sensors are untouched.
    EXPECT_FALSE(
        hub.evaluate(FaultTarget::Camera, Timestamp::origin()).any());
}

TEST(SensorFaultHub, ResolvesChannelsPerTargetInPlanOrder)
{
    FaultPlan plan(Rng(5));
    for (const char *name : {"radar-a", "cam", "radar-b"}) {
        FaultSpec spec;
        spec.name = name;
        spec.target = name[0] == 'c' ? FaultTarget::Camera
                                     : FaultTarget::Radar;
        plan.add(spec);
    }
    SensorFaultHub hub(&plan);
    EXPECT_EQ(hub.size(), 3u);
    const auto &radar = hub.channels(FaultTarget::Radar);
    ASSERT_EQ(radar.size(), 2u);
    EXPECT_EQ(radar[0]->spec().name, "radar-a");
    EXPECT_EQ(radar[1]->spec().name, "radar-b");
    EXPECT_EQ(hub.channels(FaultTarget::Camera).size(), 1u);
    EXPECT_TRUE(hub.channels(FaultTarget::CanBus).empty());

    // Both radar channels decide on every evaluation.
    EXPECT_TRUE(hub.evaluate(FaultTarget::Radar, Timestamp::origin()).drop);
    EXPECT_EQ(radar[0]->injections(), 1u);
    EXPECT_EQ(radar[1]->injections(), 1u);
}

} // namespace
} // namespace sov::fault
