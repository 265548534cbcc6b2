/**
 * @file
 * The straightforward box geometry the prepared kernel must match bit
 * for bit: every query re-derives its boxes from their poses
 * (heap-allocated corners, per-call trig), runs the full four-axis SAT
 * test, and takes the clearance as the least of all 32
 * corner-to-edge distances, one square root each.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "math/geometry.h"

namespace sov::oracle {

inline Vec2
transform(const Pose2 &pose, const Vec2 &local)
{
    const double c = std::cos(pose.heading), s = std::sin(pose.heading);
    return Vec2(pose.position.x() + c * local.x() - s * local.y(),
                pose.position.y() + s * local.x() + c * local.y());
}

inline Vec2
inverseTransform(const Pose2 &pose, const Vec2 &world)
{
    const double c = std::cos(pose.heading), s = std::sin(pose.heading);
    const Vec2 d = world - pose.position;
    return Vec2(c * d.x() + s * d.y(), -s * d.x() + c * d.y());
}

inline Vec2
direction(const Pose2 &pose)
{
    return Vec2(std::cos(pose.heading), std::sin(pose.heading));
}

inline Vec2
closestPoint(const Segment2 &seg, const Vec2 &p)
{
    const Vec2 ab = seg.b - seg.a;
    const double len2 = ab.squaredNorm();
    if (len2 < 1e-18)
        return seg.a;
    double t = (p - seg.a).dot(ab) / len2;
    t = std::clamp(t, 0.0, 1.0);
    return seg.a + ab * t;
}

inline double
segmentDistance(const Segment2 &seg, const Vec2 &p)
{
    return p.distanceTo(closestPoint(seg, p));
}

inline std::vector<Vec2>
corners(const OrientedBox2 &box)
{
    return {
        transform(box.pose, Vec2(box.half_length, box.half_width)),
        transform(box.pose, Vec2(-box.half_length, box.half_width)),
        transform(box.pose, Vec2(-box.half_length, -box.half_width)),
        transform(box.pose, Vec2(box.half_length, -box.half_width)),
    };
}

inline bool
axisOverlap(const Vec2 &axis, const std::vector<Vec2> &ca,
            const std::vector<Vec2> &cb)
{
    auto range = [&axis](const std::vector<Vec2> &cs) {
        double lo = cs[0].dot(axis), hi = lo;
        for (std::size_t i = 1; i < cs.size(); ++i) {
            const double v = cs[i].dot(axis);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        return std::pair<double, double>(lo, hi);
    };
    const auto [alo, ahi] = range(ca);
    const auto [blo, bhi] = range(cb);
    return alo <= bhi && ahi >= blo;
}

inline bool
overlaps(const OrientedBox2 &a, const OrientedBox2 &o)
{
    const auto ca = corners(a);
    const auto cb = corners(o);
    const Vec2 axes[4] = {
        direction(a.pose),
        Vec2(-direction(a.pose).y(), direction(a.pose).x()),
        direction(o.pose),
        Vec2(-direction(o.pose).y(), direction(o.pose).x()),
    };
    for (const auto &axis : axes) {
        if (!axisOverlap(axis, ca, cb))
            return false;
    }
    return true;
}

inline double
distanceTo(const OrientedBox2 &a, const OrientedBox2 &o)
{
    if (overlaps(a, o))
        return 0.0;
    const auto ca = corners(a);
    const auto cb = corners(o);
    double best = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < 4; ++i) {
        const Segment2 ea{ca[i], ca[(i + 1) % 4]};
        const Segment2 eb{cb[i], cb[(i + 1) % 4]};
        for (std::size_t j = 0; j < 4; ++j) {
            best = std::min(best, segmentDistance(ea, cb[j]));
            best = std::min(best, segmentDistance(eb, ca[j]));
        }
    }
    return best;
}

} // namespace sov::oracle
