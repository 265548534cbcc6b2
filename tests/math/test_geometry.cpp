#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "math/geometry.h"

namespace sov {
namespace {

TEST(WrapAngle, NormalizesIntoHalfOpenRange)
{
    EXPECT_NEAR(wrapAngle(0.0), 0.0, 1e-15);
    EXPECT_NEAR(wrapAngle(3.0 * M_PI), M_PI, 1e-12);
    EXPECT_NEAR(wrapAngle(-3.0 * M_PI), M_PI, 1e-12);
    EXPECT_NEAR(wrapAngle(2.0 * M_PI + 0.1), 0.1, 1e-12);
    EXPECT_NEAR(wrapAngle(-0.1), -0.1, 1e-12);
}

TEST(Pose2, TransformRoundTrip)
{
    const Pose2 p{Vec2(3.0, -1.0), M_PI / 3.0};
    const Vec2 local(2.0, 0.5);
    const Vec2 world = p.transform(local);
    const Vec2 back = p.inverseTransform(world);
    EXPECT_NEAR(back.x(), local.x(), 1e-12);
    EXPECT_NEAR(back.y(), local.y(), 1e-12);
}

TEST(Pose2, Compose)
{
    const Pose2 a{Vec2(1.0, 0.0), M_PI / 2.0};
    const Pose2 b{Vec2(1.0, 0.0), 0.0};
    const Pose2 c = a.compose(b);
    EXPECT_NEAR(c.position.x(), 1.0, 1e-12);
    EXPECT_NEAR(c.position.y(), 1.0, 1e-12);
    EXPECT_NEAR(c.heading, M_PI / 2.0, 1e-12);
}

TEST(Segment2, ClosestPointAndDistance)
{
    const Segment2 s{Vec2(0.0, 0.0), Vec2(10.0, 0.0)};
    EXPECT_NEAR(s.distanceTo(Vec2(5.0, 3.0)), 3.0, 1e-12);
    EXPECT_NEAR(s.distanceTo(Vec2(-4.0, 3.0)), 5.0, 1e-12); // clamps to a
    EXPECT_NEAR(s.distanceTo(Vec2(13.0, 4.0)), 5.0, 1e-12); // clamps to b
    const Vec2 cp = s.closestPoint(Vec2(7.0, -2.0));
    EXPECT_NEAR(cp.x(), 7.0, 1e-12);
    EXPECT_NEAR(cp.y(), 0.0, 1e-12);
}

TEST(Segment2, Intersection)
{
    const Segment2 a{Vec2(0, 0), Vec2(2, 2)};
    const Segment2 b{Vec2(0, 2), Vec2(2, 0)};
    const auto hit = a.intersect(b);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(hit->x(), 1.0, 1e-12);
    EXPECT_NEAR(hit->y(), 1.0, 1e-12);

    const Segment2 c{Vec2(0, 3), Vec2(2, 3)};
    EXPECT_FALSE(a.intersect(c).has_value());

    const Segment2 par{Vec2(0, 1), Vec2(2, 3)};
    EXPECT_FALSE(a.intersect(par).has_value()); // parallel
}

TEST(Aabb2, ContainsOverlapsInflated)
{
    const Aabb2 box{Vec2(0, 0), Vec2(2, 2)};
    EXPECT_TRUE(box.contains(Vec2(1, 1)));
    EXPECT_TRUE(box.contains(Vec2(0, 0))); // boundary inclusive
    EXPECT_FALSE(box.contains(Vec2(3, 1)));
    EXPECT_TRUE(box.overlaps(Aabb2{Vec2(1, 1), Vec2(3, 3)}));
    EXPECT_FALSE(box.overlaps(Aabb2{Vec2(3, 3), Vec2(4, 4)}));
    EXPECT_TRUE(box.inflated(1.5).contains(Vec2(3, 1)));
}

TEST(OrientedBox2, OverlapAxisAligned)
{
    const OrientedBox2 a{Pose2{Vec2(0, 0), 0.0}, 1.0, 0.5};
    const OrientedBox2 b{Pose2{Vec2(1.5, 0), 0.0}, 1.0, 0.5};
    const OrientedBox2 c{Pose2{Vec2(3.0, 0), 0.0}, 1.0, 0.5};
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_FALSE(a.overlaps(c));
}

TEST(OrientedBox2, OverlapRotatedRequiresSat)
{
    // Diagonal box near the corner of an axis-aligned one: AABB overlap
    // but SAT separation.
    const OrientedBox2 a{Pose2{Vec2(0, 0), 0.0}, 1.0, 1.0};
    const OrientedBox2 b{Pose2{Vec2(2.4, 2.4), M_PI / 4.0}, 1.4, 0.2};
    EXPECT_FALSE(a.overlaps(b));
    const OrientedBox2 c{Pose2{Vec2(1.2, 1.2), M_PI / 4.0}, 1.4, 0.4};
    EXPECT_TRUE(a.overlaps(c));
}

TEST(OrientedBox2, ContainsPoint)
{
    const OrientedBox2 box{Pose2{Vec2(0, 0), M_PI / 2.0}, 2.0, 1.0};
    EXPECT_TRUE(box.contains(Vec2(0.5, 1.5)));  // rotated frame
    EXPECT_FALSE(box.contains(Vec2(1.5, 0.5)));
}

TEST(Polyline2, LengthAndSample)
{
    Polyline2 line({Vec2(0, 0), Vec2(3, 0), Vec2(3, 4)});
    EXPECT_DOUBLE_EQ(line.length(), 7.0);
    const Vec2 p = line.sample(3.0);
    EXPECT_NEAR(p.x(), 3.0, 1e-12);
    EXPECT_NEAR(p.y(), 0.0, 1e-12);
    const Vec2 q = line.sample(5.0);
    EXPECT_NEAR(q.x(), 3.0, 1e-12);
    EXPECT_NEAR(q.y(), 2.0, 1e-12);
    // Clamping.
    EXPECT_EQ(line.sample(-1.0), Vec2(0.0, 0.0));
    EXPECT_EQ(line.sample(100.0), Vec2(3.0, 4.0));
}

TEST(Polyline2, SampleOfNaNIsNaN)
{
    // A NaN arc length fails both clamps; the segment search must not
    // run (it would read past the arc-length table).
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const Polyline2 &line :
         {Polyline2({Vec2(0, 0), Vec2(3, 0)}),
          Polyline2({Vec2(0, 0), Vec2(3, 0), Vec2(3, 4)}),
          Polyline2({Vec2(1, 2)})}) {
        const Vec2 p = line.sample(nan);
        EXPECT_TRUE(std::isnan(p.x()));
        EXPECT_TRUE(std::isnan(p.y()));
    }
}

TEST(Polyline2, HeadingAt)
{
    Polyline2 line({Vec2(0, 0), Vec2(3, 0), Vec2(3, 4)});
    EXPECT_NEAR(line.headingAt(1.0), 0.0, 1e-12);
    EXPECT_NEAR(line.headingAt(5.0), M_PI / 2.0, 1e-12);
}

TEST(Polyline2, ProjectSignedOffset)
{
    Polyline2 line({Vec2(0, 0), Vec2(10, 0)});
    const auto [s_left, off_left] = line.project(Vec2(4.0, 2.0));
    EXPECT_NEAR(s_left, 4.0, 1e-12);
    EXPECT_NEAR(off_left, 2.0, 1e-12); // left of travel is positive
    const auto [s_right, off_right] = line.project(Vec2(6.0, -1.0));
    EXPECT_NEAR(s_right, 6.0, 1e-12);
    EXPECT_NEAR(off_right, -1.0, 1e-12);
}

TEST(OrientedBox2, DistanceToDisjointAndOverlapping)
{
    const OrientedBox2 a{Pose2{Vec2(0, 0), 0.0}, 1.0, 1.0};
    const OrientedBox2 b{Pose2{Vec2(5.0, 0), 0.0}, 1.0, 1.0};
    EXPECT_NEAR(a.distanceTo(b), 3.0, 1e-12); // face to face
    EXPECT_NEAR(b.distanceTo(a), 3.0, 1e-12); // symmetric
    const OrientedBox2 c{Pose2{Vec2(1.5, 0), 0.0}, 1.0, 1.0};
    EXPECT_DOUBLE_EQ(a.distanceTo(c), 0.0); // overlapping
    // Diagonal separation: nearest corners.
    const OrientedBox2 d{Pose2{Vec2(4.0, 4.0), 0.0}, 1.0, 1.0};
    EXPECT_NEAR(a.distanceTo(d), std::sqrt(8.0), 1e-12);
}

TEST(Polyline2, AppendExtends)
{
    Polyline2 line;
    line.append(Vec2(0, 0));
    line.append(Vec2(1, 0));
    line.append(Vec2(1, 1));
    EXPECT_DOUBLE_EQ(line.length(), 2.0);
    EXPECT_EQ(line.size(), 3u);
}

} // namespace
} // namespace sov
