#include <gtest/gtest.h>

#include "health/health_monitor.h"

namespace sov::health {
namespace {

HealthSample
faults(std::uint32_t n)
{
    HealthSample s;
    s.pipeline_faults_in_window = n;
    return s;
}

TEST(Degradation, StaysNominalWhenClean)
{
    DegradationManager mgr;
    for (int i = 0; i < 100; ++i)
        mgr.update(faults(0), Timestamp::millisF(i * 100.0));
    EXPECT_EQ(mgr.level(), DegradationLevel::Nominal);
    EXPECT_TRUE(mgr.transitions().empty());
}

TEST(Degradation, FaultBurstEscalatesImmediately)
{
    DegradationManager mgr;
    mgr.update(faults(2), Timestamp::origin());
    EXPECT_EQ(mgr.level(), DegradationLevel::Degraded);
    mgr.update(faults(6), Timestamp::millisF(100.0));
    EXPECT_EQ(mgr.level(), DegradationLevel::ReactiveOnly);
    EXPECT_EQ(mgr.worstLevel(), DegradationLevel::ReactiveOnly);
}

TEST(Degradation, ReactiveStalenessForcesSafeStop)
{
    DegradationManager mgr;
    HealthSample s;
    s.reactive_sensors_stale = true;
    mgr.update(s, Timestamp::origin());
    EXPECT_EQ(mgr.level(), DegradationLevel::SafeStop);
    EXPECT_TRUE(mgr.safeStopRequested());
    // Terminal: clean samples never bring it back.
    for (int i = 1; i < 200; ++i)
        mgr.update(faults(0), Timestamp::millisF(i * 100.0));
    EXPECT_EQ(mgr.level(), DegradationLevel::SafeStop);
}

TEST(Degradation, ProactiveStalenessForcesReactiveOnly)
{
    DegradationManager mgr;
    HealthSample s;
    s.proactive_sensors_stale = true;
    mgr.update(s, Timestamp::origin());
    EXPECT_EQ(mgr.level(), DegradationLevel::ReactiveOnly);
    EXPECT_FALSE(mgr.proactiveEnabled());
}

TEST(Degradation, RecoveryStepsDownOneLevelAfterStreak)
{
    DegradationPolicy policy;
    policy.recovery_cycles = 5;
    DegradationManager mgr(policy);
    mgr.update(faults(6), Timestamp::origin()); // -> ReactiveOnly
    ASSERT_EQ(mgr.level(), DegradationLevel::ReactiveOnly);

    int cycles_to_degraded = 0;
    for (int i = 1; i <= 20; ++i) {
        mgr.update(faults(0), Timestamp::millisF(i * 100.0));
        if (mgr.level() == DegradationLevel::Degraded) {
            cycles_to_degraded = i;
            break;
        }
    }
    // One level at a time, only after the full clean streak.
    EXPECT_EQ(cycles_to_degraded, 5);
    for (int i = 21; i <= 40; ++i)
        mgr.update(faults(0), Timestamp::millisF(i * 100.0));
    EXPECT_EQ(mgr.level(), DegradationLevel::Nominal);
    // worstLevel remembers the excursion.
    EXPECT_EQ(mgr.worstLevel(), DegradationLevel::ReactiveOnly);
}

TEST(Degradation, FlappingFaultResetsTheStreak)
{
    DegradationPolicy policy;
    policy.recovery_cycles = 5;
    DegradationManager mgr(policy);
    mgr.update(faults(2), Timestamp::origin()); // -> Degraded
    for (int i = 1; i < 30; ++i) {
        // A fault every 3rd cycle: the streak never reaches 5.
        mgr.update(faults(i % 3 == 0 ? 2 : 0),
                   Timestamp::millisF(i * 100.0));
    }
    EXPECT_EQ(mgr.level(), DegradationLevel::Degraded);
}

TEST(Degradation, SpeedCapFollowsLevel)
{
    DegradationManager mgr;
    EXPECT_DOUBLE_EQ(mgr.speedCap(5.6), 5.6);
    mgr.update(faults(2), Timestamp::origin());
    EXPECT_DOUBLE_EQ(mgr.speedCap(5.6), 2.8);
    mgr.update(faults(6), Timestamp::millisF(100.0));
    EXPECT_DOUBLE_EQ(mgr.speedCap(5.6), 0.0);
}

TEST(Degradation, RecoveryCanBeDisabled)
{
    DegradationPolicy policy;
    policy.recovery_cycles = 2;
    policy.allow_recovery = false;
    DegradationManager mgr(policy);
    mgr.update(faults(2), Timestamp::origin());
    for (int i = 1; i < 50; ++i)
        mgr.update(faults(0), Timestamp::millisF(i * 100.0));
    EXPECT_EQ(mgr.level(), DegradationLevel::Degraded);
}

TEST(HealthMonitor, SensorGoesStaleAfterSilenceBudget)
{
    HealthMonitor mon;
    HeartbeatSpec spec;
    spec.stale_after = Duration::millisF(300.0);
    const SensorId camera =
        mon.watchSensor("camera", spec, Timestamp::origin());

    mon.noteHeartbeat(camera, Timestamp::millisF(100.0));
    EXPECT_FALSE(mon.sensorStale("camera", Timestamp::millisF(350.0)));
    EXPECT_TRUE(mon.sensorStale("camera", Timestamp::millisF(401.0)));
    // A beat older than the last one moves nothing.
    mon.noteHeartbeat(camera, Timestamp::millisF(50.0));
    EXPECT_TRUE(mon.sensorStale("camera", Timestamp::millisF(401.0)));
    // Unwatched names never report stale.
    EXPECT_FALSE(mon.sensorStale("lidar", Timestamp::seconds(100.0)));
}

TEST(HealthMonitor, SensorIdsAreStableAcrossRewatch)
{
    HealthMonitor mon;
    HeartbeatSpec spec;
    spec.stale_after = Duration::millisF(300.0);
    const SensorId camera =
        mon.watchSensor("camera", spec, Timestamp::origin());
    const SensorId radar =
        mon.watchSensor("radar", spec, Timestamp::origin());
    EXPECT_NE(camera, radar);

    // Watching a name again swaps its spec but keeps its id and its
    // last beat (the silence budget is not re-anchored).
    mon.noteHeartbeat(radar, Timestamp::millisF(100.0));
    spec.stale_after = Duration::millisF(500.0);
    EXPECT_EQ(mon.watchSensor("radar", spec, Timestamp::seconds(10.0)),
              radar);
    EXPECT_FALSE(mon.sensorStale("radar", Timestamp::millisF(550.0)));
    EXPECT_TRUE(mon.sensorStale("radar", Timestamp::millisF(601.0)));
    // The other sensor's beats stay its own.
    EXPECT_TRUE(mon.sensorStale("camera", Timestamp::millisF(301.0)));
}

TEST(HealthMonitor, StaleProactiveSensorDegradesToReactiveOnly)
{
    HealthMonitor mon;
    HeartbeatSpec spec;
    spec.stale_after = Duration::millisF(300.0);
    mon.watchSensor("camera", spec, Timestamp::origin());

    EXPECT_EQ(mon.evaluate(Timestamp::millisF(200.0)),
              DegradationLevel::Nominal);
    EXPECT_EQ(mon.evaluate(Timestamp::millisF(400.0)),
              DegradationLevel::ReactiveOnly);
}

TEST(HealthMonitor, StaleReactiveSensorForcesSafeStop)
{
    HealthMonitor mon;
    HeartbeatSpec spec;
    spec.stale_after = Duration::millisF(200.0);
    spec.reactive_critical = true;
    mon.watchSensor("radar", spec, Timestamp::origin());

    EXPECT_EQ(mon.evaluate(Timestamp::millisF(100.0)),
              DegradationLevel::Nominal);
    EXPECT_EQ(mon.evaluate(Timestamp::millisF(300.0)),
              DegradationLevel::SafeStop);
}

TEST(HealthMonitor, ListenerEventsFeedTheFaultWindow)
{
    DegradationPolicy policy;
    policy.degrade_threshold = 2;
    HealthMonitor mon(policy);

    // Two abandoned frames within one window -> DEGRADED.
    runtime::FrameTrace failed;
    failed.failed = true;
    mon.onFrameFailed(failed);
    mon.onFrameFailed(failed);
    EXPECT_EQ(mon.evaluate(Timestamp::millisF(100.0)),
              DegradationLevel::Degraded);
}

TEST(HealthMonitor, WindowForgetsOldFaults)
{
    DegradationPolicy policy;
    policy.window_cycles = 3;
    policy.degrade_threshold = 2;
    policy.recovery_cycles = 2;
    HealthMonitor mon(policy);

    runtime::FrameTrace failed;
    failed.failed = true;
    mon.onFrameFailed(failed);
    mon.onFrameFailed(failed);
    EXPECT_EQ(mon.evaluate(Timestamp::millisF(100.0)),
              DegradationLevel::Degraded);
    // Faults age out of the 3-cycle window; the clean streak then
    // recovers the level.
    DegradationLevel level = DegradationLevel::Degraded;
    for (int i = 2; i <= 8; ++i)
        level = mon.evaluate(Timestamp::millisF(i * 100.0));
    EXPECT_EQ(level, DegradationLevel::Nominal);
}

TEST(HealthMonitor, PipelineStallDetected)
{
    HealthMonitor mon;
    mon.setPipelineStallAfter(Duration::millisF(500.0));
    // Frames in flight, no activity since the origin: stalled once the
    // budget passes.
    EXPECT_EQ(mon.evaluate(Timestamp::millisF(400.0), 2),
              DegradationLevel::Nominal);
    EXPECT_EQ(mon.evaluate(Timestamp::millisF(600.0), 2),
              DegradationLevel::ReactiveOnly);
    // With nothing in flight there is no stall.
    HealthMonitor idle;
    idle.setPipelineStallAfter(Duration::millisF(500.0));
    EXPECT_EQ(idle.evaluate(Timestamp::seconds(100.0), 0),
              DegradationLevel::Nominal);
}

} // namespace
} // namespace sov::health
