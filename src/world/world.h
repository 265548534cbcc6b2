/**
 * @file
 * The synthetic deployment site: immutable scene (lane map + visual
 * landmarks) plus a stepped WorldTimeline of traffic agents. This is
 * the proprietary-field-data substitute: everything the real vehicle
 * would sense, we generate from this world model.
 *
 * Reading the world: every spatial query (raycast, obstaclesNear, …)
 * lives on WorldSnapshot, the time-indexed view the sensing layers
 * take — a cheap immutable facade over (lane map, published obstacle
 * rows, landmarks) at one timeline epoch. World::snapshot() takes one
 * explicitly; WorldSnapshot also converts implicitly from
 * `const World &`, so the consumer layers (radar, sonar, lidar,
 * renderer, detector, reactive path, closed loop) take snapshots
 * while their call sites pass worlds. World itself only builds and
 * steps the scene and hands out its parts (map(), obstacles(),
 * landmarks()).
 *
 * Revision: every snapshot carries its rows' revision
 * (WorldTimeline::revision). Equal nonzero revisions promise equal
 * rows, bit for bit, so a consumer may keep a proof about one
 * snapshot's rows and reuse it on a later snapshot of the same
 * revision (ReactivePath's corridor certificate does). A world's
 * revision moves only on a spawn, a clear, or a tick with behavioural
 * agents; a snapshot built over bare vectors always has revision 0,
 * and 0 promises nothing.
 *
 * Motion semantics: an un-stepped world (nobody calls advanceTo) is
 * bit-identical to the legacy analytic model — every addObstacle()
 * wraps a constant-velocity agent whose published row *is* the spawn
 * row, so footprintAt(t) evaluates the same closed form as before.
 * Stepping only matters once behavioral agents are in play.
 */
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/time.h"
#include "math/geometry.h"
#include "math/vec.h"
#include "world/lane_map.h"
#include "world/obstacle.h"
#include "world/timeline.h"
#include "world/trajectory.h"

namespace sov {

class World;

/**
 * What a corridorcast() that skipped every box proves about later
 * corridor queries on rows of the same revision (DESIGN.md,
 * Broadphase, corridor certificate). Let the query have had origin
 * o0, direction (cos h0, sin h0), range Q0 and time t0. A later query
 * with the same half-width and max range, origin o, direction
 * (cos h, sin h), range Q and time t skips every box again, and so
 * returns none, while
 *
 *     (|o - o0|_1 + |h - h0| * turn_reach + speed * |t - t0|
 *      + (Q <= Q0 ? 0 : Q - Q0)) * (1 + 4e-9)  <  separation
 *
 * (a NaN term fails it). The rounding of both queries is already
 * taken out of separation.
 */
struct CorridorClearance
{
    /** Every box was skipped with separation > 0 and the direction
     *  was a unit vector to rounding; the fields below are set only
     *  then. */
    bool valid = false;
    /** The least separation of any box from the region the query
     *  reads (+inf with no rows), less rounding. */
    double separation = 0.0;
    /** How far a unit turn moves a box against the rays: the largest
     *  |center - origin|_1, plus twice the half-width. */
    double turn_reach = 0.0;
    /** The rows' largest speed, |velocity|_1. */
    double speed = 0.0;
};

/**
 * Immutable time-indexed view of a world at one timeline epoch: what
 * every sensor model queries. Holds references — valid only while the
 * backing world outlives it and is not advanced (take it, query it,
 * drop it; the closed loop takes one per planning/physics step).
 */
class WorldSnapshot
{
  public:
    /** View of @p world at its current epoch (intentionally implicit:
     *  this conversion is the consumers' migration path). */
    WorldSnapshot(const World &world);

    /** View of bare vectors; its revision is 0, which promises
     *  nothing (see the file comment). */
    WorldSnapshot(const LaneMap &map,
                  const std::vector<Obstacle> &obstacles,
                  const std::vector<Landmark> &landmarks, Timestamp epoch)
        : map_(&map), obstacles_(&obstacles), landmarks_(&landmarks),
          epoch_(epoch), revision_(0)
    {
    }

    const LaneMap &map() const { return *map_; }
    const std::vector<Obstacle> &obstacles() const { return *obstacles_; }
    const std::vector<Landmark> &landmarks() const { return *landmarks_; }
    /** The timeline epoch the obstacle rows were published at. */
    Timestamp epoch() const { return epoch_; }
    /** The rows' revision (see the file comment); 0 = unversioned. */
    std::uint64_t revision() const { return revision_; }

    /**
     * Distance from @p origin along @p direction to the first obstacle
     * hit at time @p t, up to @p max_range. The physics behind the
     * radar/sonar models. A zero-length direction sees nothing
     * (nullopt), not a panic. Each footprint is built on the fly, and
     * a box clear of the ray's line is skipped unprepared
     * (PreparedBox::castRay).
     */
    std::optional<double> raycast(const Vec2 &origin,
                                  const Vec2 &direction, double max_range,
                                  Timestamp t) const;

    /**
     * The nearest hit of three parallel rays along @p direction,
     * started at @p origin and at @p half_width to either side of it
     * (origin + normal * lateral, normal the left normal of
     * @p direction) — the radar corridor of the reactive path
     * (Sec. IV) — unless it lies beyond @p range: exact hits <= range,
     * else none. The hit is bit-identical to the least of raycast()
     * from the three origins, right ray first, folded as `hit &&
     * (!best || *hit < *best)` (a NaN result is kept: no range
     * excludes it; a NaN range excludes nothing). One pass over the
     * obstacles: a box whose bounding circle lies clear of the whole
     * strip, wholly behind every ray origin, or wholly beyond
     * @p range along it (see world.cpp) is skipped before its
     * footprint is built, the rest fold into all three rays, and a
     * pass with no such box builds no ray. The rays keep @p max_range,
     * so every hit they return keeps its bits. A non-null
     * @p clearance receives what this query proves about later ones
     * (see CorridorClearance); the hit does not depend on it.
     */
    std::optional<double> corridorcast(
        const Vec2 &origin, const Vec2 &direction, double half_width,
        double max_range, Timestamp t,
        double range = std::numeric_limits<double>::infinity(),
        CorridorClearance *clearance = nullptr) const;

    /** Obstacles whose center is within @p range of @p position at t. */
    std::vector<Obstacle> obstaclesNear(const Vec2 &position, double range,
                                        Timestamp t) const;

  private:
    const LaneMap *map_;
    const std::vector<Obstacle> *obstacles_;
    const std::vector<Landmark> *landmarks_;
    Timestamp epoch_;
    std::uint64_t revision_;
};

/** The complete synthetic environment: scene + agent timeline. */
class World
{
  public:
    World() = default;
    explicit World(LaneMap map) : map_(std::move(map)) {}

    const LaneMap &map() const { return map_; }
    LaneMap &map() { return map_; }

    /** Add a constant-velocity obstacle; returns its id. */
    ObstacleId addObstacle(Obstacle o)
    {
        return timeline_.addObstacle(std::move(o));
    }
    /** Register a behavioral agent; returns its id. */
    ObstacleId spawnAgent(std::unique_ptr<Agent> agent)
    {
        return timeline_.spawn(std::move(agent));
    }
    /** The published row of every agent at the current epoch. */
    const std::vector<Obstacle> &obstacles() const
    {
        return timeline_.published();
    }
    std::size_t numObstacles() const { return timeline_.size(); }
    /** Remove all obstacles/agents and restart id assignment from 0
     *  (scenario reset; also rewinds the timeline epoch). */
    void clearObstacles() { timeline_.clear(); }

    /** Full scenario reset: obstacles, landmarks, both id counters
     *  and the timeline epoch — a reset world rebuilt from the same
     *  Rng stream is bit-identical to a fresh one. */
    void reset();

    /** Step the agent timeline across every tick boundary up to
     *  @p t; @p ego_pose / @p ego_speed are what agents observe. */
    void advanceTo(Timestamp t, const Pose2 &ego_pose, double ego_speed)
    {
        timeline_.advanceTo(t, ego_pose, ego_speed);
    }
    const WorldTimeline &timeline() const { return timeline_; }

    /** View of the current epoch for the sensing layers. */
    WorldSnapshot snapshot() const
    {
        return WorldSnapshot(*this);
    }

    /** Add a landmark; returns its id. */
    std::uint32_t addLandmark(const Vec3 &position, double intensity = 1.0);
    const std::vector<Landmark> &landmarks() const { return landmarks_; }

    /**
     * Scatter @p count landmarks around a path corridor — building
     * facades, poles, and texture the VIO front-end tracks.
     * @param corridor_half_width Lateral extent around the path.
     * @param height_range Landmarks get z in [0.3, height_range].
     */
    void scatterLandmarks(const Polyline2 &path, std::size_t count,
                          double corridor_half_width, double height_range,
                          Rng &rng);

  private:
    LaneMap map_;
    WorldTimeline timeline_;
    std::vector<Landmark> landmarks_;
    std::uint32_t next_landmark_id_ = 0;
};

inline WorldSnapshot::WorldSnapshot(const World &world)
    : map_(&world.map()), obstacles_(&world.obstacles()),
      landmarks_(&world.landmarks()), epoch_(world.timeline().epoch()),
      revision_(world.timeline().revision())
{
}

} // namespace sov
