/**
 * @file
 * Per-sample fault evaluation: folds every channel of a FaultPlan
 * aimed at one target into a per-sample disposition (drop it, freeze
 * it, delay it, corrupt it). Consumers keep their own last-good state
 * for Freeze; the hub only decides.
 *
 * The hub resolves the plan's channels target by target once, when it
 * is built, so an evaluation walks a ready list and never allocates.
 * It is the closed loop's one route for sensor, perception and CAN
 * faults (sovpipe/closed_loop.h); the sensor models themselves carry
 * no fault hooks.
 */
#pragma once

#include <array>
#include <vector>

#include "fault/fault_plan.h"

namespace sov::fault {

/** What to do with one sensor sample. */
struct SensorDisposition
{
    bool drop = false;   //!< the sample never arrives
    bool freeze = false; //!< deliver the previous good sample again
    Duration extra_latency = Duration::zero();
    /** Channel to draw corruption noise from; nullptr = clean. */
    FaultChannel *corruption = nullptr;

    bool
    any() const
    {
        return drop || freeze || extra_latency > Duration::zero() ||
            corruption != nullptr;
    }
};

/** Per-target view over a FaultPlan. */
class SensorFaultHub
{
  public:
    /** Resolve the channels @p plan holds now, per target in plan
     *  order. nullptr = fault-free: every disposition is clean and
     *  nothing ever draws. Not owned; must outlive the hub. */
    explicit SensorFaultHub(FaultPlan *plan = nullptr);

    /**
     * Evaluate all channels aimed at @p target for one sample at
     * @p t, each deciding on its own stream. Dropout wins over Freeze
     * when both fire; a channel in a stage mode decides but changes
     * nothing. Inline: the closed loop asks once per physics step and
     * per perceived object, and a target with no channels must cost
     * no call.
     */
    SensorDisposition
    evaluate(FaultTarget target, Timestamp t)
    {
        SensorDisposition disposition;
        for (FaultChannel *channel : channels(target)) {
            if (!channel->shouldInject(t))
                continue;
            switch (channel->spec().mode) {
            case FaultMode::Dropout:
                disposition.drop = true;
                break;
            case FaultMode::Freeze:
                disposition.freeze = true;
                break;
            case FaultMode::LatencySpike:
                disposition.extra_latency += channel->spec().latency;
                break;
            case FaultMode::Corruption:
                disposition.corruption = channel;
                break;
            default:
                break; // stage modes don't apply to samples
            }
        }
        return disposition;
    }

    /** The channels aimed at @p target, in plan order. */
    const std::vector<FaultChannel *> &
    channels(FaultTarget target) const
    {
        return by_target_[static_cast<std::size_t>(target)];
    }

    /** Channels bound across all targets. */
    std::size_t size() const { return size_; }

  private:
    std::array<std::vector<FaultChannel *>, kFaultTargetCount> by_target_;
    std::size_t size_ = 0;
};

} // namespace sov::fault
