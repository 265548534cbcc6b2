#include "health/health_monitor.h"

#include <algorithm>

#include "core/logging.h"

namespace sov::health {

SensorId
HealthMonitor::watchSensor(const std::string &name,
                           const HeartbeatSpec &spec, Timestamp now)
{
    for (std::size_t id = 0; id < sensors_.size(); ++id) {
        if (sensors_[id].name == name) {
            sensors_[id].spec = spec;
            return static_cast<SensorId>(id);
        }
    }
    // Anchor the silence budget at registration so a sensor that
    // never produces a single sample still goes stale.
    sensors_.push_back(Sensor{name, spec, now});
    return static_cast<SensorId>(sensors_.size() - 1);
}

void
HealthMonitor::noteHeartbeat(SensorId sensor, Timestamp t)
{
    SOV_ASSERT(sensor < sensors_.size());
    Timestamp &last = sensors_[sensor].last_beat;
    if (last < t)
        last = t;
}

bool
HealthMonitor::sensorStale(const std::string &name, Timestamp now) const
{
    for (const Sensor &sensor : sensors_) {
        if (sensor.name == name)
            return sensor.staleAt(now);
    }
    return false;
}

void
HealthMonitor::onStageAttempt(runtime::StageId stage, std::size_t frame,
                              runtime::StageOutcome outcome,
                              bool timed_out)
{
    (void)stage;
    (void)frame;
    if (outcome == runtime::StageOutcome::Crash)
        ++pending_faults_;
    if (timed_out)
        ++pending_faults_;
}

void
HealthMonitor::onFrameFailed(const runtime::FrameTrace &trace)
{
    ++pending_faults_;
    last_frame_activity_ = std::max(last_frame_activity_, trace.finish);
}

void
HealthMonitor::onFrameCompleted(const runtime::FrameTrace &trace)
{
    last_frame_activity_ = std::max(last_frame_activity_, trace.finish);
}

DegradationLevel
HealthMonitor::evaluate(Timestamp now, std::uint64_t frames_in_flight)
{
    window_.push_back(pending_faults_);
    pending_faults_ = 0;
    while (window_.size() > manager_.policy().window_cycles)
        window_.pop_front();

    HealthSample sample;
    for (const std::uint32_t count : window_)
        sample.pipeline_faults_in_window += count;
    // Staleness folds into two flags by OR, so the order the sensors
    // are visited in cannot change the sample.
    for (const Sensor &sensor : sensors_) {
        if (!sensor.staleAt(now))
            continue;
        if (sensor.spec.reactive_critical)
            sample.reactive_sensors_stale = true;
        else
            sample.proactive_sensors_stale = true;
    }
    sample.pipeline_stalled = frames_in_flight > 0 &&
        now - last_frame_activity_ > stall_after_;
    return manager_.update(sample, now);
}

} // namespace sov::health
