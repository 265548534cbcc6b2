#include "vehicle/reactive.h"

#include <limits>

namespace sov {

std::optional<double>
ReactivePath::evaluate(const WorldSnapshot &world, const Pose2 &body, double speed,
                       Timestamp t)
{
    // The farthest distance a decision below reads: the trigger
    // distance while unlatched, the release distance once latched and
    // stopped, and nothing while latched and moving (no decision
    // fires). Hits beyond it cannot change either decision.
    const bool latched = ecu_.emergencyLatched();
    const double trigger = triggerDistance(speed, 4.0 /* max brake decel */);
    const double range = !latched      ? trigger
                         : speed <= 1e-6 ? config_.release_distance
                                         : -std::numeric_limits<double>::infinity();
    const auto distance = radar_.nearestInPath(
        world, body, config_.corridor_half_width, t, range);

    if (distance && *distance <= trigger && !latched) {
        ++triggers_;
        // The reactive signal reaches the ECU after the short
        // direct-path latency; the ECU adds T_mech itself.
        sim_.post(config_.path_latency, *this);
    }

    // Release once the path is clear again and the vehicle stopped.
    // (Posting the trigger does not latch: the ECU latches when the
    // signal arrives, so `latched` still holds here.)
    if (latched && speed <= 1e-6 &&
        (!distance || *distance > config_.release_distance)) {
        ecu_.releaseEmergencyBrake();
    }
    return distance;
}

} // namespace sov
