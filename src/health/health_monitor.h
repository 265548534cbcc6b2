/**
 * @file
 * Runtime health monitoring on the discrete-event simulator.
 *
 * The HealthMonitor is the glue between raw supervision signals and
 * the DegradationManager:
 *
 *  - it implements runtime::DataflowHealthListener, so every stage
 *    crash, watchdog timeout and abandoned frame of the
 *    DataflowExecutor counts toward the fault window, and every
 *    resolved frame toward stall detection (the executor keeps the
 *    totals: DataflowExecutor::stageCrashes() and friends);
 *  - it tracks per-sensor heartbeats (a sensor that stops producing
 *    samples goes stale after its configured silence budget);
 *  - once per planning cycle, evaluate() folds the events since the
 *    last call into a sliding window, checks staleness and pipeline
 *    stall, and drives the degradation state machine.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "health/degradation.h"
#include "runtime/dataflow.h"

namespace sov::health {

/** Liveness expectations for one sensor stream. */
struct HeartbeatSpec
{
    /** Silence longer than this marks the sensor stale. */
    Duration stale_after = Duration::millisF(500.0);
    /** Guards the reactive path (radar/sonar): staleness escalates to
     *  SAFE_STOP instead of REACTIVE_ONLY. */
    bool reactive_critical = false;
};

/** A watched sensor stream: watchSensor() hands it out and
 *  noteHeartbeat() takes it, so a beat costs no name lookup. */
using SensorId = std::uint32_t;

/** The monitor. */
class HealthMonitor final : public runtime::DataflowHealthListener
{
  public:
    explicit HealthMonitor(const DegradationPolicy &policy = {})
        : manager_(policy) {}

    /** Register a sensor stream and return its id. @p now anchors the
     *  silence budget so a sensor that never beats still goes stale.
     *  Watching a name again replaces its spec and keeps its id and
     *  last beat. */
    SensorId watchSensor(const std::string &name, const HeartbeatSpec &spec,
                         Timestamp now = Timestamp::origin());

    /** Note one delivered sample of the watched @p sensor at @p t. */
    void noteHeartbeat(SensorId sensor, Timestamp t);

    /** True if @p name has been silent beyond its budget at @p now.
     *  Unwatched sensors are never stale. */
    bool sensorStale(const std::string &name, Timestamp now) const;

    // runtime::DataflowHealthListener
    void onStageAttempt(runtime::StageId stage, std::size_t frame,
                        runtime::StageOutcome outcome,
                        bool timed_out) override;
    void onFrameFailed(const runtime::FrameTrace &trace) override;
    void onFrameCompleted(const runtime::FrameTrace &trace) override;

    /**
     * One supervision cycle: fold events since the last call into the
     * sliding fault window, evaluate sensor staleness and pipeline
     * stall, and step the degradation state machine.
     * @param frames_in_flight Released-but-unresolved pipeline frames
     *        (stall detection); 0 disables stall checking.
     */
    DegradationLevel evaluate(Timestamp now,
                              std::uint64_t frames_in_flight = 0);

    DegradationManager &degradation() { return manager_; }
    const DegradationManager &degradation() const { return manager_; }

    /** No frame resolved for this long while frames were in flight =
     *  pipeline stalled (default 1 s). */
    void setPipelineStallAfter(Duration d) { stall_after_ = d; }

  private:
    struct Sensor
    {
        std::string name;
        HeartbeatSpec spec;
        Timestamp last_beat;

        bool staleAt(Timestamp now) const
        {
            return now - last_beat > spec.stale_after;
        }
    };

    DegradationManager manager_;
    /** Indexed by SensorId, in registration order. */
    std::vector<Sensor> sensors_;
    std::deque<std::uint32_t> window_; //!< per-cycle fault counts
    std::uint32_t pending_faults_ = 0;
    Duration stall_after_ = Duration::seconds(1.0);
    Timestamp last_frame_activity_ = Timestamp::origin();
};

} // namespace sov::health
