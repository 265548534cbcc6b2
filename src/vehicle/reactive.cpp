#include "vehicle/reactive.h"

#include <cmath>
#include <limits>

namespace sov {

std::optional<double>
ReactivePath::corridor(const WorldSnapshot &world, const Pose2 &body,
                       Timestamp t, double range)
{
    // The sleep test of CorridorClearance: a NaN term (pose, heading,
    // range) fails it, and so does an unversioned snapshot.
    const Certificate &c = certificate_;
    const double time_s = t.toSeconds();
    if (c.revision != 0 && world.revision() == c.revision) {
        const double grow = range <= c.range ? 0.0 : range - c.range;
        const double spent =
            (std::fabs(body.position.x() - c.position.x()) +
             std::fabs(body.position.y() - c.position.y()) +
             std::fabs(body.heading - c.heading) * c.clearance.turn_reach +
             c.clearance.speed * std::fabs(time_s - c.time_s) + grow) *
            (1.0 + 4e-9);
        if (spent < c.clearance.separation) {
            ++certified_skips_;
            return std::nullopt;
        }
    }
    CorridorClearance clearance;
    const auto distance = radar_.nearestInPath(
        world, body, config_.corridor_half_width, t, range, &clearance);
    certificate_ = clearance.valid && world.revision() != 0
        ? Certificate{world.revision(), body.position, body.heading, range,
                      time_s, clearance}
        : Certificate{};
    return distance;
}

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
    ++evaluations_;
    const auto distance = corridor(world, body, t, range);

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
