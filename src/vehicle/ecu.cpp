#include "vehicle/ecu.h"

namespace sov {

void
Ecu::onCommand(const ControlCommand &command)
{
    commands_.push(command);
    sim_.post(mechanical_latency_, *this, kCommand);
}

void
Ecu::emergencyBrake()
{
    emergency_ = true;
    sim_.post(mechanical_latency_, *this, kBrake);
}

void
Ecu::onEvent(std::uint64_t arg)
{
    ActuatorState state;
    if (arg == kCommand) {
        const ControlCommand command = commands_.front();
        commands_.pop();
        if (emergency_)
            return; // reactive override wins (Sec. IV)
        state.acceleration = command.acceleration;
        state.curvature = command.steer_curvature;
        state.emergency_brake = command.emergency_brake;
    } else {
        if (!emergency_)
            return;
        state.emergency_brake = true;
    }
    vehicle_.applyActuator(state);
}

void
Ecu::releaseEmergencyBrake()
{
    emergency_ = false;
}

} // namespace sov
