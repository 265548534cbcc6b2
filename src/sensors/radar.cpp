#include "sensors/radar.h"

#include <cmath>

namespace sov {

std::vector<RadarDetection>
RadarModel::scan(const WorldSnapshot &world, const Pose2 &body,
                 const Vec2 &ego_velocity, Timestamp t)
{
    std::vector<RadarDetection> detections;
    const double boresight = body.heading + config_.mount_yaw;

    for (const auto &obs : world.obstacles()) {
        const Vec2 rel = obs.positionAt(t) - body.position;
        const double range = rel.norm();
        if (range < 0.3 || range > config_.max_range)
            continue;
        const double bearing =
            wrapAngle(std::atan2(rel.y(), rel.x()) - boresight);
        if (std::fabs(bearing) > config_.fov / 2.0)
            continue;
        if (!rng_.bernoulli(config_.detection_probability))
            continue;

        // Radial velocity of the target relative to the ego vehicle.
        const Vec2 rel_vel = obs.velocity - ego_velocity;
        const Vec2 los = rel / range;
        const double vr = rel_vel.dot(los);

        RadarDetection det;
        det.trigger_time = t;
        det.range = range + rng_.gaussian(0.0, config_.range_noise);
        det.azimuth = bearing + rng_.gaussian(0.0, config_.azimuth_noise);
        det.radial_velocity =
            vr + rng_.gaussian(0.0, config_.velocity_noise);
        det.truth_id = obs.id;
        detections.push_back(det);
    }
    return detections;
}

std::optional<double>
RadarModel::nearestInPath(const WorldSnapshot &world, const Pose2 &body,
                          double corridor_half_width, Timestamp t,
                          double range) const
{
    // Three parallel rays across the corridor approximate the beam.
    return world.corridorcast(body.position, body.direction(),
                              corridor_half_width, config_.max_range, t,
                              range);
}

} // namespace sov
