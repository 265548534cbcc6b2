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

    WorldSnapshot(const LaneMap &map,
                  const std::vector<Obstacle> &obstacles,
                  const std::vector<Landmark> &landmarks, Timestamp epoch)
        : map_(&map), obstacles_(&obstacles), landmarks_(&landmarks),
          epoch_(epoch)
    {
    }

    const LaneMap &map() const { return *map_; }
    const std::vector<Obstacle> &obstacles() const { return *obstacles_; }
    const std::vector<Landmark> &landmarks() const { return *landmarks_; }
    /** The timeline epoch the obstacle rows were published at. */
    Timestamp epoch() const { return epoch_; }

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
     * so every hit they return keeps its bits.
     */
    std::optional<double> corridorcast(
        const Vec2 &origin, const Vec2 &direction, double half_width,
        double max_range, Timestamp t,
        double range = std::numeric_limits<double>::infinity()) const;

    /** Obstacles whose center is within @p range of @p position at t. */
    std::vector<Obstacle> obstaclesNear(const Vec2 &position, double range,
                                        Timestamp t) const;

  private:
    const LaneMap *map_;
    const std::vector<Obstacle> *obstacles_;
    const std::vector<Landmark> *landmarks_;
    Timestamp epoch_;
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
        return WorldSnapshot(map_, timeline_.published(), landmarks_,
                             timeline_.epoch());
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
      landmarks_(&world.landmarks()), epoch_(world.timeline().epoch())
{
}

} // namespace sov
