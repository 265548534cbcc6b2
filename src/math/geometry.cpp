#include "math/geometry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace sov {

double
wrapAngle(double radians)
{
    double a = std::fmod(radians + M_PI, 2.0 * M_PI);
    if (a <= 0.0)
        a += 2.0 * M_PI;
    return a - M_PI;
}

namespace {

// The shared kernels: Pose2, Segment2 and PreparedBox all evaluate
// these expressions, so a prepared query and a fresh one round alike.

Vec2
transformWith(const Vec2 &position, double c, double s, const Vec2 &local)
{
    return Vec2(position.x() + c * local.x() - s * local.y(),
                position.y() + s * local.x() + c * local.y());
}

Vec2
inverseTransformWith(const Vec2 &position, double c, double s,
                     const Vec2 &world)
{
    const Vec2 d = world - position;
    return Vec2(c * d.x() + s * d.y(), -s * d.x() + c * d.y());
}

Vec2
closestOnSegment(const Vec2 &a, const Vec2 &ab, double len2, const Vec2 &p)
{
    if (len2 < 1e-18)
        return a;
    double t = (p - a).dot(ab) / len2;
    t = std::clamp(t, 0.0, 1.0);
    return a + ab * t;
}

std::array<Vec2, 4>
cornersWith(const OrientedBox2 &box, double c, double s)
{
    const Vec2 &p = box.pose.position;
    const double hl = box.half_length, hw = box.half_width;
    return {
        transformWith(p, c, s, Vec2(hl, hw)),
        transformWith(p, c, s, Vec2(-hl, hw)),
        transformWith(p, c, s, Vec2(-hl, -hw)),
        transformWith(p, c, s, Vec2(hl, -hw)),
    };
}

bool
localInside(const Vec2 &local, double half_length, double half_width)
{
    return std::fabs(local.x()) <= half_length &&
           std::fabs(local.y()) <= half_width;
}

/** Project the corners of both boxes onto @p axis; true if the ranges
 *  overlap. */
bool
axisOverlap(const Vec2 &axis, const std::array<Vec2, 4> &ca,
            const std::array<Vec2, 4> &cb)
{
    auto range = [&axis](const std::array<Vec2, 4> &cs) {
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

/**
 * Squared distance from @p p to the edge from @p a along @p ab (far
 * end @p end = a + ab, squared length @p len2): the value
 * Segment2::distanceTo takes the square root of. Where the projection
 * clamps to an end, closestOnSegment's division yields t = +-0 or
 * exactly 1 (a finite quotient >= 1 rounds to >= 1), so the closest
 * point is a or a + ab up to the sign of a zero component, which
 * squaring erases: the division is skipped. NaN and non-finite edges
 * take the general path.
 */
double
edgeDistance2(const Vec2 &a, const Vec2 &ab, const Vec2 &end, double len2,
              const Vec2 &p)
{
    if (len2 >= 1e-18 && len2 <= std::numeric_limits<double>::max()) {
        const double dot = (p - a).dot(ab);
        if (dot <= 0.0)
            return (p - a).squaredNorm();
        if (dot >= len2)
            return (p - end).squaredNorm();
    }
    return (p - closestOnSegment(a, ab, len2, p)).squaredNorm();
}

} // namespace

Vec2
Pose2::transform(const Vec2 &local) const
{
    return transformWith(position, std::cos(heading), std::sin(heading),
                         local);
}

Vec2
Pose2::inverseTransform(const Vec2 &world) const
{
    return inverseTransformWith(position, std::cos(heading),
                                std::sin(heading), world);
}

Pose2
Pose2::compose(const Pose2 &other) const
{
    return Pose2{transform(other.position),
                 wrapAngle(heading + other.heading)};
}

Vec2
Pose2::direction() const
{
    return Vec2(std::cos(heading), std::sin(heading));
}

Vec2
Segment2::closestPoint(const Vec2 &p) const
{
    const Vec2 ab = b - a;
    return closestOnSegment(a, ab, ab.squaredNorm(), p);
}

double
Segment2::distanceTo(const Vec2 &p) const
{
    return p.distanceTo(closestPoint(p));
}

std::optional<Vec2>
Segment2::intersect(const Segment2 &o) const
{
    const Vec2 r = b - a;
    const Vec2 s = o.b - o.a;
    const double denom = r.x() * s.y() - r.y() * s.x();
    if (std::fabs(denom) < 1e-14)
        return std::nullopt; // parallel (collinear overlap not reported)
    const Vec2 qp = o.a - a;
    const double t = (qp.x() * s.y() - qp.y() * s.x()) / denom;
    const double u = (qp.x() * r.y() - qp.y() * r.x()) / denom;
    if (t < 0.0 || t > 1.0 || u < 0.0 || u > 1.0)
        return std::nullopt;
    return a + r * t;
}

bool
Aabb2::contains(const Vec2 &p) const
{
    return p.x() >= lo.x() && p.x() <= hi.x() &&
           p.y() >= lo.y() && p.y() <= hi.y();
}

bool
Aabb2::overlaps(const Aabb2 &o) const
{
    return lo.x() <= o.hi.x() && hi.x() >= o.lo.x() &&
           lo.y() <= o.hi.y() && hi.y() >= o.lo.y();
}

Aabb2
Aabb2::inflated(double margin) const
{
    return Aabb2{Vec2(lo.x() - margin, lo.y() - margin),
                 Vec2(hi.x() + margin, hi.y() + margin)};
}

std::array<Vec2, 4>
OrientedBox2::corners() const
{
    return cornersWith(*this, std::cos(pose.heading), std::sin(pose.heading));
}

bool
OrientedBox2::overlaps(const OrientedBox2 &o) const
{
    return PreparedBox(*this).overlaps(PreparedBox(o));
}

double
OrientedBox2::distanceTo(const OrientedBox2 &o) const
{
    return PreparedBox(*this).distanceTo(PreparedBox(o));
}

bool
OrientedBox2::contains(const Vec2 &p) const
{
    return localInside(pose.inverseTransform(p), half_length, half_width);
}

PreparedRay::PreparedRay(const Segment2 &ray)
    : seg(ray), r(ray.b - ray.a), len(r.norm()),
      scale(std::max({std::fabs(ray.a.x()), std::fabs(ray.a.y()),
                      std::fabs(ray.b.x()), std::fabs(ray.b.y())}))
{
}

PreparedBox::PreparedBox() : PreparedBox(OrientedBox2{Pose2{}, 0.0, 0.0}) {}

PreparedBox::PreparedBox(const OrientedBox2 &box)
    : trig_heading_(0.0), c_(1.0), s_(0.0)
{
    assign(box);
}

void
PreparedBox::assign(const OrientedBox2 &box)
{
    box_ = box;
    radius_ = std::sqrt(box.half_length * box.half_length +
                        box.half_width * box.half_width);
    finite_ = std::isfinite(box.pose.heading) &&
              std::isfinite(box.pose.position.x()) &&
              std::isfinite(box.pose.position.y()) &&
              std::isfinite(box.half_length) &&
              std::isfinite(box.half_width) && std::isfinite(radius_);
    prepared_ = false;
}

double
PreparedBox::broadphaseMargin(double scale)
{
    return 1e-9 * scale + 1e-150;
}

const std::array<Vec2, 4> &
PreparedBox::corners() const
{
    prepare();
    return corners_;
}

void
PreparedBox::prepare() const
{
    if (prepared_)
        return;
    if (std::bit_cast<std::uint64_t>(box_.pose.heading) !=
        std::bit_cast<std::uint64_t>(trig_heading_)) {
        c_ = std::cos(box_.pose.heading);
        s_ = std::sin(box_.pose.heading);
        trig_heading_ = box_.pose.heading;
    }
    corners_ = cornersWith(box_, c_, s_);
    for (std::size_t i = 0; i < 4; ++i) {
        edges_[i] = corners_[(i + 1) % 4] - corners_[i];
        ends_[i] = corners_[i] + edges_[i];
        edge_len2_[i] = edges_[i].squaredNorm();
    }
    prepared_ = true;
}

bool
PreparedBox::overlaps(const PreparedBox &o) const
{
    prepare();
    o.prepare();
    // Axes: each box's heading direction and its left normal.
    const Vec2 axes[4] = {
        Vec2(c_, s_),
        Vec2(-s_, c_),
        Vec2(o.c_, o.s_),
        Vec2(-o.s_, o.c_),
    };
    for (const auto &axis : axes) {
        if (!axisOverlap(axis, corners_, o.corners_))
            return false;
    }
    return true;
}

bool
PreparedBox::contains(const Vec2 &p) const
{
    prepare();
    return localInside(inverseTransformWith(box_.pose.position, c_, s_, p),
                       box_.half_length, box_.half_width);
}

double
PreparedBox::foldEdges(const Vec2 &q, double best2) const
{
    for (std::size_t i = 0; i < 4; ++i)
        best2 = std::min(best2, edgeDistance2(corners_[i], edges_[i], ends_[i],
                                              edge_len2_[i], q));
    return best2;
}

double
PreparedBox::distanceTo(const PreparedBox &o) const
{
    // A positive clearance bound proves the SAT test false, bit for
    // bit (clearanceBound()); a NaN or non-positive one runs it.
    if (!(clearanceBound(o) > 0.0) && overlaps(o))
        return 0.0;
    prepare();
    o.prepare();
    // The candidates are the squared distances from each box's corners
    // to the other box's edges. sqrt is correctly rounded and
    // monotone, so the square root of the least squared distance is
    // the least distance: one sqrt, not 32. NaN candidates drop out of
    // std::min, so best2 is never NaN, and the least of non-negative
    // squares does not depend on the order they are folded in.
    //
    // First each box's corner nearest the other's center (squared
    // center distances, first of equals) against all four edges.
    std::array<double, 4> dist_a2, dist_b2;
    std::size_t ia = 0, ib = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        dist_a2[i] = (corners_[i] - o.box_.pose.position).squaredNorm();
        dist_b2[i] = (o.corners_[i] - box_.pose.position).squaredNorm();
        if (dist_a2[i] < dist_a2[ia])
            ia = i;
        if (dist_b2[i] < dist_b2[ib])
            ib = i;
    }
    double best2 = o.foldEdges(corners_[ia],
                               std::numeric_limits<double>::infinity());
    best2 = foldEdges(o.corners_[ib], best2);

    // Then a remaining corner q of one box skips the other box's four
    // edges when |q - c| > best + R + margin, c and R that box's center
    // and radius, best = sqrt(best2). Every point edgeDistance2
    // measures to (a corner, an end, a clamped projection) lies within
    // R of c up to the rounding of its placement and of R, and no term
    // here exceeds a few times the pair's coordinate scale, so the
    // margin (broadphaseMargin()) covers those roundings and the
    // relative ones of this test many times over. Each skipped
    // candidate is then the square of a distance above best plus most
    // of the margin, and rounds above best2: it cannot be the least.
    // The margin's floor keeps the squares compared here normal
    // numbers, where rounding is relative only; comparing squares
    // keeps the one sqrt. With no finite candidate yet best is +inf.
    // A NaN reach or corner distance compares false and an infinite
    // reach skips nothing, so non-finite boxes need no branch of
    // their own.
    const double margin = pairMargin(o);
    const double best = std::sqrt(best2);
    const double reach_a = best + o.radius_ + margin;
    const double reach_b = best + radius_ + margin;
    const double reach_a2 = reach_a * reach_a, reach_b2 = reach_b * reach_b;
    for (std::size_t i = 0; i < 4; ++i) {
        if (i != ia && !(dist_a2[i] > reach_a2))
            best2 = o.foldEdges(corners_[i], best2);
        if (i != ib && !(dist_b2[i] > reach_b2))
            best2 = foldEdges(o.corners_[i], best2);
    }
    // With no finite candidate the result stays max(), where a fold of
    // the roots from max() stays too.
    if (best2 == std::numeric_limits<double>::infinity())
        return std::numeric_limits<double>::max();
    return std::sqrt(best2);
}

double
PreparedBox::pairMargin(const PreparedBox &o) const
{
    const Vec2 &a = box_.pose.position;
    const Vec2 &b = o.box_.pose.position;
    return broadphaseMargin(maxAbs(a) + maxAbs(b) +
                            (radius_ + o.radius_));
}

double
PreparedBox::clearanceBound(const PreparedBox &o) const
{
    // Every corner lies within radius() of its center, up to the
    // rounding of its placement, so the boxes' fp polygons are at
    // least (center distance - both radii) apart, up to rounding the
    // margin covers many times over. Past that margin the polygons are
    // apart by d > 0, one of the four SAT axes separates them by at
    // least d / sqrt(2), and the clearance fold cannot round below it.
    if (!finite_ || !o.finite_)
        return -std::numeric_limits<double>::infinity();
    return (o.box_.pose.position - box_.pose.position).norm() -
           (radius_ + o.radius_) - pairMargin(o);
}

void
PreparedBox::castRay(const PreparedRay &ray, std::optional<double> &best) const
{
    // Side test: corner i's side value T_i = cross(corner_i - origin, r)
    // is the numerator of intersect()'s edge parameter u = T_i /
    // (T_i - T_{i+1}). When the bounding circle sits clear of the
    // ray's supporting line by more than the rounding margin, all four
    // T_i share a sign with |T_i| above the rounding of either the
    // numerator or the denominator, so u rounds outside [0, 1] for
    // every edge, and the origin (on the line) is outside the circle,
    // so contains() is false too. A non-finite box, or a ray whose
    // terms are not finite, fails the comparison and takes the exact
    // path.
    if (finite_) {
        const Vec2 d = box_.pose.position - ray.seg.a;
        const double side = std::fabs(d.x() * ray.r.y() - d.y() * ray.r.x());
        const double scale = ray.scale + maxAbs(box_.pose.position) + radius_;
        // broadphaseMargin(0.0) is the floor alone.
        if (side > (radius_ + broadphaseMargin(scale)) * ray.len +
                       broadphaseMargin(0.0))
            return;
    }
    // A ray starting inside the box hits at distance 0, which no
    // later box can undercut.
    if (contains(ray.seg.a)) {
        best = 0.0;
        return;
    }
    for (std::size_t i = 0; i < 4; ++i) {
        const Segment2 edge{corners_[i], corners_[(i + 1) % 4]};
        if (const auto hit = ray.seg.intersect(edge)) {
            const double d = ray.seg.a.distanceTo(*hit);
            if (!best || d < *best)
                best = d;
        }
    }
}

Polyline2::Polyline2(std::vector<Vec2> points) : points_(std::move(points))
{
    cumlen_.reserve(points_.size());
    double s = 0.0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
        if (i > 0)
            s += points_[i].distanceTo(points_[i - 1]);
        cumlen_.push_back(s);
    }
}

double
Polyline2::length() const
{
    return cumlen_.empty() ? 0.0 : cumlen_.back();
}

void
Polyline2::append(const Vec2 &p)
{
    double s = 0.0;
    if (!points_.empty())
        s = cumlen_.back() + p.distanceTo(points_.back());
    points_.push_back(p);
    cumlen_.push_back(s);
}

Vec2
Polyline2::sample(double s) const
{
    SOV_ASSERT(!points_.empty());
    // NaN fails both clamps below, and the search would then read one
    // past the end of cumlen_.
    if (std::isnan(s))
        return Vec2(std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::quiet_NaN());
    if (points_.size() == 1 || s <= 0.0)
        return points_.front();
    if (s >= length())
        return points_.back();
    // Binary search the segment containing arc length s.
    const auto it = std::upper_bound(cumlen_.begin(), cumlen_.end(), s);
    const std::size_t i = static_cast<std::size_t>(it - cumlen_.begin());
    const double seg_start = cumlen_[i - 1];
    const double seg_len = cumlen_[i] - seg_start;
    const double t = seg_len > 0.0 ? (s - seg_start) / seg_len : 0.0;
    return points_[i - 1] + (points_[i] - points_[i - 1]) * t;
}

double
Polyline2::headingAt(double s) const
{
    SOV_ASSERT(points_.size() >= 2);
    const double clamped = std::clamp(s, 0.0, length());
    auto it = std::upper_bound(cumlen_.begin(), cumlen_.end(), clamped);
    std::size_t i = static_cast<std::size_t>(it - cumlen_.begin());
    if (i >= points_.size())
        i = points_.size() - 1;
    if (i == 0)
        i = 1;
    const Vec2 d = points_[i] - points_[i - 1];
    return std::atan2(d.y(), d.x());
}

Aabb2
Polyline2::boundsBetween(double s0, double s1) const
{
    const Vec2 a = sample(s0), b = sample(s1);
    Aabb2 box{Vec2(std::min(a.x(), b.x()), std::min(a.y(), b.y())),
              Vec2(std::max(a.x(), b.x()), std::max(a.y(), b.y()))};
    for (auto i = static_cast<std::size_t>(
             std::upper_bound(cumlen_.begin(), cumlen_.end(), s0) -
             cumlen_.begin());
         i < points_.size() && cumlen_[i] < s1; ++i) {
        const Vec2 &p = points_[i];
        box.lo = Vec2(std::min(box.lo.x(), p.x()), std::min(box.lo.y(), p.y()));
        box.hi = Vec2(std::max(box.hi.x(), p.x()), std::max(box.hi.y(), p.y()));
    }
    return box;
}

std::pair<double, double>
Polyline2::project(const Vec2 &p) const
{
    SOV_ASSERT(points_.size() >= 2);
    double best_dist2 = std::numeric_limits<double>::max();
    double best_s = 0.0;
    double best_side = 0.0;
    for (std::size_t i = 1; i < points_.size(); ++i) {
        const Segment2 seg{points_[i - 1], points_[i]};
        const Vec2 cp = seg.closestPoint(p);
        const double d2 = (p - cp).squaredNorm();
        if (d2 < best_dist2) {
            best_dist2 = d2;
            best_s = cumlen_[i - 1] + cp.distanceTo(points_[i - 1]);
            const Vec2 dir = points_[i] - points_[i - 1];
            const Vec2 off = p - cp;
            // Positive lateral offset = left of travel direction.
            best_side = dir.x() * off.y() - dir.y() * off.x() >= 0.0
                ? std::sqrt(d2) : -std::sqrt(d2);
        }
    }
    return {best_s, best_side};
}

} // namespace sov
