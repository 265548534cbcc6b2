#include "world/world.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

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
                            Timestamp t, double range,
                            CorridorClearance *clearance) const
{
    SOV_ASSERT(max_range > 0.0);
    if (clearance)
        *clearance = CorridorClearance{};
    // raycast()'s zero-direction rule and normalized() (which panics on
    // a NaN direction) come first, as in the three casts.
    if (direction.squaredNorm() == 0.0)
        return std::nullopt;
    const Vec2 dir = direction.normalized();
    const Vec2 normal(-direction.y(), direction.x());
    const double laterals[3] = {-half_width, 0.0, half_width};
    Vec2 from[3];
    for (std::size_t i = 0; i < 3; ++i)
        from[i] = origin + normal * laterals[i];

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
    //
    // Range test. Every point of the box lies within rho of c, and
    // every ray origin within reach of origin, so along every ray the
    // box spans no less than along - reach - rho and no more than
    // along + reach + rho, along = dot(c - origin, dir). A box wholly
    // behind every origin (along + reach + m < -rho) or wholly beyond
    // @p range (along - reach - m - range > rho) is skipped, on three
    // conditions that make castRay's rounded hits obey those spans
    // (DESIGN.md, Broadphase): no ray runs within `band` of where an
    // edge nearly parallel to it would lie (lat_i near hw or hl: such
    // an edge's intersect() parameter is rounding noise and may land
    // anywhere on the ray), both extents are at least 1e-6 of the
    // scale, and the scale is below 1e100, so the exact cast of a
    // skipped box is finite: a box behind has no hit, a box beyond has
    // only hits past @p range, none of them NaN.
    const double reach =
        std::fabs(half_width) * (std::fabs(direction.x()) +
                                 std::fabs(direction.y()));
    const double ray_scale = maxAbs(origin) + reach + max_range;
    const double per_range = 1.0 / max_range;
    const double time_s = t.toSeconds();

    // Corridor certificate (DESIGN.md, Broadphase): while every box is
    // skipped, each one's separation from the region this query reads,
    // taken at twice its scale so that it bounds every later query the
    // certificate admits (which cannot grow the scale by more than the
    // separation, and the scale caps it), less the rounding of this
    // query and of a later one: 64 ulps of that scale and of the row's
    // base position (footprintAt()'s v * t), plus a floor that keeps
    // the later query's squares normal.
    bool certifying = clearance != nullptr &&
                      std::fabs(direction.squaredNorm() - 1.0) <= 1e-15;
    double separation = std::numeric_limits<double>::infinity();
    double turn_reach = 2.0 * std::fabs(half_width);
    double speed = 0.0;
    const auto certify = [&](const Obstacle &obs, const Vec2 &center) {
        const double hl = obs.footprint.half_length;
        const double hw = obs.footprint.half_width;
        const double ahl = std::fabs(hl), ahw = std::fabs(hw);
        const Vec2 d = center - origin;
        const double scale = ray_scale + maxAbs(center) + (ahl + ahw);
        const double wide = 2.0 * scale;
        const double margin = 2.0 * PreparedBox::broadphaseMargin(wide) *
                              (1.0 + (wide + 1.0) * per_range);
        const double rho = std::sqrt(hl * hl + hw * hw);
        const double along = d.x() * dir.x() + d.y() * dir.y();
        // The strip route, then the range route where its conditions
        // hold at the wide scale: behind, or beyond a range of at most
        // the scale (a larger later range is spent growth).
        double sep = std::fabs(d.x() * dir.y() - d.y() * dir.x()) - reach -
                     margin - rho;
        if (ahl >= 1e-6 * wide && ahw >= 1e-6 * wide && wide < 1e100) {
            double span = -along - reach - margin - rho;
            if (std::fabs(range) <= scale ||
                range == -std::numeric_limits<double>::infinity())
                span = std::max(span, along - reach - margin - range - rho);
            const double band = 5e-4 * (ahl + ahw) + margin;
            for (const Vec2 &o : from) {
                const Vec2 di = center - o;
                const double lat_i = std::fabs(di.x() * dir.y() - di.y() * dir.x());
                span = std::min({span, std::fabs(lat_i - ahw) - band,
                                 std::fabs(lat_i - ahl) - band});
            }
            sep = std::max(sep, span);
        }
        const double cover =
            64.0 * (std::numeric_limits<double>::epsilon() / 2.0) *
                (wide + maxAbs(obs.footprint.pose.position)) +
            2e-150;
        sep = std::min(sep, scale) - cover;
        if (!(sep > 0.0))
            certifying = false;
        separation = std::min(separation, sep);
        turn_reach = std::max(turn_reach, std::fabs(d.x()) + std::fabs(d.y()) +
                                              2.0 * std::fabs(half_width));
        speed = std::max(speed, std::fabs(obs.velocity.x()) +
                                    std::fabs(obs.velocity.y()));
    };

    std::optional<PreparedRay> rays[3];
    std::optional<double> best[3];
    // One pass over the obstacles, skipping boxes wholly beyond
    // @p beyond; true when it skipped one that way.
    const auto fold = [&](double beyond) {
        bool skipped_beyond = false;
        for (const Obstacle &obs : *obstacles_) {
            const Vec2 center =
                obs.footprint.pose.position + obs.velocity * time_s;
            const double hl = obs.footprint.half_length;
            const double hw = obs.footprint.half_width;
            if (std::isfinite(obs.footprint.pose.heading)) {
                const Vec2 d = center - origin;
                const double lat = std::fabs(d.x() * dir.y() - d.y() * dir.x());
                const double ahl = std::fabs(hl), ahw = std::fabs(hw);
                const double scale = ray_scale + maxAbs(center) + (ahl + ahw);
                const double margin = 2.0 * PreparedBox::broadphaseMargin(scale) *
                                      (1.0 + (scale + 1.0) * per_range);
                const double rho2 = hl * hl + hw * hw;
                const double clear = lat - reach - margin;
                if (clear > 0.0 && clear * clear > rho2) {
                    if (certifying)
                        certify(obs, center);
                    continue;
                }
                const double along = d.x() * dir.x() + d.y() * dir.y();
                const double ahead = along - reach - margin - beyond;
                const double behind = -along - reach - margin;
                const bool is_beyond = ahead > 0.0 && ahead * ahead > rho2;
                if ((is_beyond || (behind > 0.0 && behind * behind > rho2)) &&
                    ahl >= 1e-6 * scale && ahw >= 1e-6 * scale &&
                    scale < 1e100) {
                    const double band = 5e-4 * (ahl + ahw) + margin;
                    bool clear_of_edges = true;
                    for (const Vec2 &o : from) {
                        const Vec2 di = center - o;
                        const double lat_i =
                            std::fabs(di.x() * dir.y() - di.y() * dir.x());
                        clear_of_edges = clear_of_edges &&
                                         std::fabs(lat_i - ahw) > band &&
                                         std::fabs(lat_i - ahl) > band;
                    }
                    if (clear_of_edges) {
                        skipped_beyond = skipped_beyond || is_beyond;
                        if (certifying)
                            certify(obs, center);
                        continue;
                    }
                }
            }
            certifying = false;
            if (!rays[0]) {
                for (std::size_t i = 0; i < 3; ++i)
                    rays[i].emplace(Segment2{from[i], from[i] + dir * max_range});
            }
            // Obstacle-major over three accumulators is each ray's own
            // fold, in the same obstacle order.
            const PreparedBox box(obs.footprintAt(t));
            for (std::size_t i = 0; i < 3; ++i)
                box.castRay(*rays[i], best[i]);
        }
        return skipped_beyond;
    };
    // A ray's fold keeps its first hit when that is NaN, so a skipped
    // hit past @p range decides whether a later NaN sticks: with a NaN
    // left, fold again skipping nothing beyond (exceptional: NaN comes
    // only from non-finite or huge boxes and rays).
    if (fold(range) &&
        std::any_of(std::begin(best), std::end(best),
                    [](const std::optional<double> &hit) {
                        return hit && std::isnan(*hit);
                    })) {
        for (auto &hit : best)
            hit.reset();
        fold(std::numeric_limits<double>::infinity());
    }
    if (certifying) {
        // Every box was skipped, so there is no hit.
        *clearance = CorridorClearance{true, separation, turn_reach, speed};
        return std::nullopt;
    }
    std::optional<double> nearest;
    for (const auto &hit : best) {
        if (hit && (!nearest || *hit < *nearest))
            nearest = hit;
    }
    if (nearest && *nearest > range)
        return std::nullopt;
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
