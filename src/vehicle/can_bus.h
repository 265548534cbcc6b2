/**
 * @file
 * Controller Area Network model: delivers control commands from the
 * computing platform to the ECU with the ~1 ms latency the paper
 * measures (T_data, Sec. III-A).
 */
#pragma once

#include <functional>

#include "core/ring.h"
#include "core/time.h"
#include "planning/planner_types.h"
#include "sim/simulator.h"

namespace sov {

/**
 * CAN bus with fixed transmission latency. Every frame takes the same
 * latency, so deliveries fire in transmit order: the bus keeps the
 * frames in flight in a FIFO and each delivery event names only the
 * bus.
 */
class CanBus final : private EventTarget
{
  public:
    using Receiver = std::function<void(const ControlCommand &)>;

    /**
     * @param sim Event engine used for delayed delivery.
     * @param latency One-way transmission latency (default 1 ms).
     */
    CanBus(Simulator &sim, Duration latency = Duration::millisF(1.0))
        : sim_(sim), latency_(latency) {}

    /** Register the ECU-side receiver. */
    void connect(Receiver receiver) { receiver_ = std::move(receiver); }

    /** Transmit a command; delivered after the bus latency. */
    void transmit(const ControlCommand &command);

    /**
     * Fault hook: when set and returning true at a transmit time, the
     * frame is counted sent but never delivered (bus error / arbitration
     * loss). The closed loop routes its CanBus fault channels here
     * through fault::SensorFaultHub.
     */
    void
    setLossFilter(std::function<bool(Timestamp)> filter)
    {
        loss_filter_ = std::move(filter);
    }

    Duration latency() const { return latency_; }
    std::uint64_t framesSent() const { return frames_sent_; }
    /** Frames eaten by the loss filter. */
    std::uint64_t framesLost() const { return frames_lost_; }

  private:
    /** Delivery of the oldest frame in flight. */
    void onEvent(std::uint64_t) override;

    Simulator &sim_;
    Duration latency_;
    Receiver receiver_;
    Ring<ControlCommand> in_flight_;
    std::function<bool(Timestamp)> loss_filter_;
    std::uint64_t frames_sent_ = 0;
    std::uint64_t frames_lost_ = 0;
};

} // namespace sov
