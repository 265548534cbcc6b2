#include "health/health_monitor.h"

#include <algorithm>

namespace sov::health {

void
HealthMonitor::watchSensor(const std::string &name,
                           const HeartbeatSpec &spec, Timestamp now)
{
    specs_[name] = spec;
    // Anchor the silence budget at registration so a sensor that
    // never produces a single sample still goes stale.
    auto it = last_beat_.find(name);
    if (it == last_beat_.end())
        last_beat_[name] = now;
}

void
HealthMonitor::noteHeartbeat(const std::string &name, Timestamp t)
{
    const auto [it, inserted] = last_beat_.try_emplace(name, t);
    if (!inserted && it->second < t)
        it->second = t;
}

bool
HealthMonitor::sensorStale(const std::string &name, Timestamp now) const
{
    const auto spec = specs_.find(name);
    if (spec == specs_.end())
        return false;
    const auto beat = last_beat_.find(name);
    if (beat == last_beat_.end())
        return true;
    return now - beat->second > spec->second.stale_after;
}

void
HealthMonitor::onStageAttempt(runtime::StageId stage, std::size_t frame,
                              runtime::StageOutcome outcome,
                              bool timed_out)
{
    (void)stage;
    (void)frame;
    if (outcome == runtime::StageOutcome::Crash) {
        ++stage_crashes_;
        ++pending_faults_;
    }
    if (timed_out) {
        ++stage_timeouts_;
        ++pending_faults_;
    }
}

void
HealthMonitor::onFrameFailed(const runtime::FrameTrace &trace)
{
    ++frames_failed_;
    ++pending_faults_;
    last_frame_activity_ = std::max(last_frame_activity_, trace.finish);
}

void
HealthMonitor::onFrameCompleted(const runtime::FrameTrace &trace)
{
    ++frames_completed_;
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
    for (const auto &[name, spec] : specs_) {
        if (!sensorStale(name, now))
            continue;
        if (spec.reactive_critical)
            sample.reactive_sensors_stale = true;
        else
            sample.proactive_sensors_stale = true;
    }
    sample.pipeline_stalled = frames_in_flight > 0 &&
        now - last_frame_activity_ > stall_after_;
    return manager_.update(sample, now);
}

} // namespace sov::health
