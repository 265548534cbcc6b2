#include "vehicle/reactive.h"

namespace sov {

std::optional<double>
ReactivePath::evaluate(const WorldSnapshot &world, const Pose2 &body, double speed,
                       Timestamp t)
{
    const auto distance = radar_.nearestInPath(
        world, body, config_.corridor_half_width, t);

    if (distance) {
        const double trigger =
            triggerDistance(speed, 4.0 /* max brake decel */);
        if (*distance <= trigger && !ecu_.emergencyLatched()) {
            ++triggers_;
            // The reactive signal reaches the ECU after the short
            // direct-path latency; the ECU adds T_mech itself.
            sim_.post(config_.path_latency, *this);
        }
    }

    // Release once the path is clear again and the vehicle stopped.
    if (ecu_.emergencyLatched() && speed <= 1e-6 &&
        (!distance || *distance > config_.release_distance)) {
        ecu_.releaseEmergencyBrake();
    }
    return distance;
}

} // namespace sov
