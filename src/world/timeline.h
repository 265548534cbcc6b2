/**
 * @file
 * WorldTimeline: the stepped half of the world model.
 *
 * The legacy World evaluated every obstacle's motion as a closed-form
 * function of an arbitrary query time. The timeline instead owns a set
 * of Agents and advances them at a fixed tick: each advanceTo(t) call
 * crosses every tick boundary up to t, stepping all agents once per
 * boundary, and re-publishes one Obstacle row per agent. Queries
 * (raycast / obstaclesNear / footprintAt) keep their legacy
 * signatures: they run against the published rows, whose
 * constant-velocity extrapolation is exact within a tick.
 *
 * Determinism: the published state at any epoch is a pure function of
 * (spawn order, agent streams, the ego poses supplied at the calls
 * that crossed each boundary). Crossing N boundaries in one
 * advanceTo() or across N calls with the same ego inputs yields
 * bit-identical rows. Agents observe the *previous* epoch's published
 * rows (double-buffered), so within-tick step order cannot leak
 * between agents.
 *
 * Constant-velocity agents (the Agent base) are never integrated or
 * rebased — their spawn row is republished verbatim — so a timeline
 * holding only CV agents is bit-identical to the legacy analytic
 * World at every query time, ticked or not.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/time.h"
#include "math/geometry.h"
#include "world/agent.h"
#include "world/obstacle.h"

namespace sov {

/** Steps agents at a fixed tick and serves per-epoch obstacle rows. */
class WorldTimeline
{
  public:
    explicit WorldTimeline(Duration tick = Duration::millisF(100.0));

    /** Wrap a plain obstacle into a constant-velocity agent. */
    ObstacleId addObstacle(Obstacle o);

    /** Register a behavioral agent; assigns and returns its id. */
    ObstacleId spawn(std::unique_ptr<Agent> agent);

    /**
     * Step every agent across each tick boundary in (epoch, t].
     * @p ego_pose / @p ego_speed are what the agents observe at every
     * boundary this call crosses.
     */
    void advanceTo(Timestamp t, const Pose2 &ego_pose, double ego_speed);

    /** The current epoch (last tick boundary crossed). */
    Timestamp epoch() const { return epoch_; }
    Duration tick() const { return tick_; }
    std::uint64_t ticksStepped() const { return ticks_; }

    /** One row per agent, in spawn order, published at epoch(). */
    const std::vector<Obstacle> &published() const { return published_; }
    /** Per row, 1 when the agent is constant-velocity (not
     *  Agent::reactive()): its row is the spawn row at every epoch, so
     *  footprintAt() is one closed form in time for the whole run. */
    const std::vector<std::uint8_t> &closedForm() const
    {
        return closed_form_;
    }
    std::size_t size() const { return agents_.size(); }

    const Agent &agent(std::size_t i) const { return *agents_[i]; }

    /** Remove all agents and reset ids and the epoch (scenario
     *  reset): a cleared timeline is indistinguishable from a fresh
     *  one, id assignment included. */
    void clear();

  private:
    void stepOnce(const Pose2 &ego_pose, double ego_speed);

    Duration tick_;
    Timestamp epoch_ = Timestamp::origin();
    std::uint64_t ticks_ = 0;
    /** Agents whose step can change their row; when zero, ticks only
     *  advance the epoch (CV rows are already exact — fast path that
     *  keeps legacy closed-loop sweeps free of per-tick copies). */
    std::size_t reactive_count_ = 0;
    std::vector<std::unique_ptr<Agent>> agents_;
    std::vector<Obstacle> published_;
    std::vector<std::uint8_t> closed_form_;
    /** Previous epoch's rows, handed to agents as observations. */
    std::vector<Obstacle> prev_published_;
    ObstacleId next_id_ = 0;
};

} // namespace sov
