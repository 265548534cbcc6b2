#include "vehicle/can_bus.h"

#include "core/logging.h"

namespace sov {

void
CanBus::transmit(const ControlCommand &command)
{
    SOV_ASSERT(receiver_ != nullptr);
    ++frames_sent_;
    if (loss_filter_ && loss_filter_(sim_.now())) {
        ++frames_lost_;
        return;
    }
    in_flight_.push(command);
    sim_.post(latency_, *this);
}

void
CanBus::onEvent(std::uint64_t)
{
    const ControlCommand command = in_flight_.front();
    in_flight_.pop();
    receiver_(command);
}

} // namespace sov
