#include "world/world.h"

#include <algorithm>
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
    for (const auto &obs : *obstacles_)
        PreparedBox(obs.footprintAt(t)).castRay(ray, best);
    return best;
}

std::optional<double>
WorldSnapshot::corridorcast(const Vec2 &origin, const Vec2 &direction,
                            double half_width, double max_range,
                            Timestamp t) const
{
    SOV_ASSERT(max_range > 0.0);
    // raycast()'s zero-direction rule and normalized() (which panics on
    // a NaN direction) come first, as in the three casts.
    if (direction.squaredNorm() == 0.0)
        return std::nullopt;
    const Vec2 dir = direction.normalized();
    const Vec2 normal(-direction.y(), direction.x());
    const double laterals[3] = {-half_width, 0.0, half_width};

    // Strip test. The three rays run along dir from origin + normal *
    // lateral, |normal * lateral| <= |half_width| * (|x| + |y| of
    // direction) =: reach. A box with finite heading whose center c
    // lies |lat| = |cross(c - origin, dir)| off the middle line is at
    // least |lat| - reach - rho off every ray's line, rho its bounding
    // radius, so castRay's side test (circle clear of the line by its
    // margin broadphaseMargin(scale_i) plus the floor over the ray's
    // length) skips it on every ray when |lat| - reach - m > rho, once
    // m covers that margin and the rounding of everything the side
    // test and this test compute from different points: the ray ends
    // (a few ulps of the scale), the ray vector's direction against
    // dir (a few ulps of the scale over max_range, times a distance up
    // to the scale) and rho against its square. Each is far below
    // m = 2 broadphaseMargin(scale) (1 + (scale + 1) / max_range), with
    // scale bounding every coordinate, extent and the range. rho is
    // compared squared, so a rejected box costs no square root. NaN
    // and infinite terms fail the test and take the exact casts.
    const double reach =
        std::fabs(half_width) * (std::fabs(direction.x()) +
                                 std::fabs(direction.y()));
    const double ray_scale = maxAbs(origin) + reach + max_range;
    const double per_range = 1.0 / max_range;
    const double time_s = t.toSeconds();

    std::optional<PreparedRay> rays[3];
    std::optional<double> best[3];
    for (const Obstacle &obs : *obstacles_) {
        const Vec2 center =
            obs.footprint.pose.position + obs.velocity * time_s;
        const double hl = obs.footprint.half_length;
        const double hw = obs.footprint.half_width;
        if (std::isfinite(obs.footprint.pose.heading)) {
            const Vec2 d = center - origin;
            const double lat = std::fabs(d.x() * dir.y() - d.y() * dir.x());
            const double scale = ray_scale + maxAbs(center) +
                                 (std::fabs(hl) + std::fabs(hw));
            const double margin = 2.0 * PreparedBox::broadphaseMargin(scale) *
                                  (1.0 + (scale + 1.0) * per_range);
            const double clear = lat - reach - margin;
            if (clear > 0.0 && clear * clear > hl * hl + hw * hw)
                continue;
        }
        if (!rays[0]) {
            for (std::size_t i = 0; i < 3; ++i) {
                const Vec2 from = origin + normal * laterals[i];
                rays[i].emplace(Segment2{from, from + dir * max_range});
            }
        }
        // Obstacle-major over three accumulators is each ray's own
        // fold, in the same obstacle order.
        const PreparedBox box(obs.footprintAt(t));
        for (std::size_t i = 0; i < 3; ++i)
            box.castRay(*rays[i], best[i]);
    }
    std::optional<double> nearest;
    for (const auto &hit : best) {
        if (hit && (!nearest || *hit < *nearest))
            nearest = hit;
    }
    return nearest;
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
