#include "sensors/sonar.h"

#include <cmath>

namespace sov {

SonarReading
SonarModel::ping(const WorldSnapshot &world, const Pose2 &body, Timestamp t)
{
    SonarReading reading;
    reading.trigger_time = t;

    // Sweep a few rays across the cone; nearest return wins.
    const double beam = body.heading + config_.mount_yaw;
    std::optional<double> best;
    for (int i = -2; i <= 2; ++i) {
        const double angle =
            beam + config_.cone_half_angle * static_cast<double>(i) / 2.0;
        const Vec2 dir(std::cos(angle), std::sin(angle));
        const auto hit =
            world.raycast(body.position, dir, config_.max_range, t);
        if (hit && (!best || *hit < *best))
            best = hit;
    }
    if (best) {
        reading.range =
            std::max(0.0, *best + rng_.gaussian(0.0, config_.range_noise));
    }
    return reading;
}

} // namespace sov
