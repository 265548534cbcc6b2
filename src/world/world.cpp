#include "world/world.h"

#include <cmath>

#include "core/logging.h"

namespace sov {

const char *
toString(ObjectClass c)
{
    switch (c) {
      case ObjectClass::Pedestrian: return "pedestrian";
      case ObjectClass::Car: return "car";
      case ObjectClass::Bicycle: return "bicycle";
      case ObjectClass::Static: return "static";
    }
    return "?";
}

OrientedBox2
Obstacle::footprintAt(Timestamp t) const
{
    OrientedBox2 box = footprint;
    box.pose.position += velocity * t.toSeconds();
    return box;
}

Vec2
Obstacle::positionAt(Timestamp t) const
{
    return footprint.pose.position + velocity * t.toSeconds();
}

void
World::reset()
{
    timeline_.clear();
    landmarks_.clear();
    next_landmark_id_ = 0;
}

std::uint32_t
World::addLandmark(const Vec3 &position, double intensity)
{
    landmarks_.push_back(Landmark{next_landmark_id_++, position, intensity});
    return landmarks_.back().id;
}

void
World::scatterLandmarks(const Polyline2 &path, std::size_t count,
                        double corridor_half_width, double height_range,
                        Rng &rng)
{
    SOV_ASSERT(path.length() > 0.0);
    for (std::size_t i = 0; i < count; ++i) {
        const double s = rng.uniform(0.0, path.length());
        const Vec2 center = path.sample(s);
        const double heading = path.headingAt(s);
        // Offset laterally; keep landmarks off the road itself so they
        // read as facades/poles, not road surface.
        const double side = rng.bernoulli(0.5) ? 1.0 : -1.0;
        const double lateral =
            side * rng.uniform(0.35 * corridor_half_width,
                               corridor_half_width);
        const Vec2 normal(-std::sin(heading), std::cos(heading));
        const Vec2 pos2 = center + normal * lateral;
        const double z = rng.uniform(0.3, height_range);
        addLandmark(Vec3(pos2.x(), pos2.y(), z),
                    rng.uniform(0.35, 1.0));
    }
}

std::optional<double>
WorldSnapshot::raycast(const Vec2 &origin, const Vec2 &direction,
                       double max_range, Timestamp t) const
{
    SOV_ASSERT(max_range > 0.0);
    // A zero-length direction defines no ray: see nothing rather than
    // panic inside normalized() (sensors can produce degenerate beam
    // directions at singular mount configurations).
    if (direction.squaredNorm() == 0.0)
        return std::nullopt;
    const Vec2 dir = direction.normalized();
    const PreparedRay ray(Segment2{origin, origin + dir * max_range});
    std::optional<double> best;
    if (!footprints_.empty() && t == footprints_at_) {
        for (const PreparedBox &box : footprints_)
            box.castRay(ray, best);
    } else {
        for (const auto &obs : *obstacles_)
            PreparedBox(obs.footprintAt(t)).castRay(ray, best);
    }
    return best;
}

void
WorldSnapshot::prepareFootprints(Timestamp t,
                                 std::vector<PreparedBox> &out) const
{
    out.resize(obstacles_->size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].assign((*obstacles_)[i].footprintAt(t));
}

WorldSnapshot
WorldSnapshot::withFootprints(std::span<const PreparedBox> footprints,
                              Timestamp t) const
{
    SOV_ASSERT(footprints.size() == obstacles_->size());
    WorldSnapshot view = *this;
    view.footprints_ = footprints;
    view.footprints_at_ = t;
    return view;
}

std::vector<Obstacle>
WorldSnapshot::obstaclesNear(const Vec2 &position, double range,
                             Timestamp t) const
{
    std::vector<Obstacle> out;
    for (const auto &obs : *obstacles_) {
        if (obs.positionAt(t).distanceTo(position) <= range)
            out.push_back(obs);
    }
    return out;
}

} // namespace sov
