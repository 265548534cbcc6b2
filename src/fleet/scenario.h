/**
 * @file
 * Scenario space for fleet-scale closed-loop evaluation.
 *
 * The paper validates the SoV design against a handful of hand-picked
 * field scenarios (the Sec. IV sudden wall, the Sec. III-C fault
 * matrix); a deployable system has to be exercised across *spaces* of
 * scenarios. This layer makes those spaces enumerable: a ScenarioSpec
 * names one closed-loop run (world x fault plan x software/hardware
 * stack x seed), and a ScenarioMatrix composes axes of presets into
 * the cartesian product, in a fixed deterministic order, ready for the
 * FleetRunner to shard across threads.
 *
 * Every preset is a value object; nothing here owns live simulation
 * state. In particular a StackPreset's ClosedLoopConfig must keep its
 * `faults` pointer null — the runner materializes one FaultPlan per
 * scenario run from the FaultPreset's specs, on the scenario's own
 * forked Rng stream.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/rng.h"
#include "fault/fault_plan.h"
#include "sovpipe/closed_loop.h"
#include "sovpipe/fig5_graph.h"
#include "world/world.h"

namespace sov::fleet {

/** A named environment builder: obstacles, route, horizon. */
struct WorldPreset
{
    std::string name;
    /** Populate the world; draws only from the supplied Rng. */
    std::function<void(World &, Rng &)> build;
    Polyline2 route{{Vec2(0.0, 0.0), Vec2(300.0, 0.0)}};
    double horizon_s = 40.0;
    bool smoke = false; //!< included in reduced CI sweeps
};

/** A named fault scenario (Sec. III-C), as injectable specs. */
struct FaultPreset
{
    std::string name;
    std::vector<fault::FaultSpec> specs;
    bool smoke = false; //!< included in reduced CI sweeps
};

/** A named software/hardware stack configuration. */
struct StackPreset
{
    std::string name;
    /** Must keep `faults == nullptr`; the runner owns the plan. */
    ClosedLoopConfig loop;
    SovPipelineConfig pipeline;
};

/** One fully specified closed-loop run. */
struct ScenarioSpec
{
    /** Composed "world/fault/stack#s<seed>" identity (report row key).
     *  The scenario's Rng streams fork from the *environment* part
     *  only (world/fault#seed, no stack), so every stack preset faces
     *  bit-identical world and fault draws — the fault matrix compares
     *  stacks as a controlled experiment. */
    std::string name;
    /** Position in the enumerated matrix (report row order). */
    std::size_t index = 0;
    WorldPreset world;
    FaultPreset faults;
    StackPreset stack;
    std::uint64_t seed = 1;
};

/**
 * Refuse, fatally and naming the world, a preset no closed loop can
 * run: a horizon that is NaN, infinite or not positive, or a route
 * with fewer than two points or a length that is not positive and
 * finite (the loop's route-end test and the reactive path's corridor
 * certificate assume a finite route). ScenarioMatrix::addWorld and
 * FleetRunner::runScenario both check.
 */
void checkWorldPreset(const WorldPreset &world);

/**
 * Axes of presets composing into an enumerable scenario space.
 * enumerate() iterates worlds (outermost) x faults x stacks x seeds
 * (innermost); the order of addition fixes the order of enumeration,
 * so the same matrix always yields the same scenario list.
 */
class ScenarioMatrix
{
  public:
    /** Add a world (checkWorldPreset() refuses a bad one). */
    ScenarioMatrix &addWorld(WorldPreset world);
    ScenarioMatrix &addFault(FaultPreset preset);
    ScenarioMatrix &addFaults(const std::vector<FaultPreset> &presets);
    ScenarioMatrix &addStack(StackPreset stack);
    ScenarioMatrix &addSeed(std::uint64_t seed);
    /** Add seeds base, base+1, ..., base+count-1. */
    ScenarioMatrix &addSeeds(std::uint64_t base, std::size_t count);

    /** Drop worlds and faults not marked smoke (reduced CI sweep). */
    ScenarioMatrix &smokeOnly();

    std::size_t size() const;
    const std::vector<WorldPreset> &worlds() const { return worlds_; }
    const std::vector<FaultPreset> &faults() const { return faults_; }
    const std::vector<StackPreset> &stacks() const { return stacks_; }
    const std::vector<std::uint64_t> &seeds() const { return seeds_; }

    /** The full cartesian product, indexed 0..size()-1. An axis left
     *  empty is treated as a single neutral element (no faults /
     *  default stack / seed 1); worlds must be non-empty. */
    std::vector<ScenarioSpec> enumerate() const;

  private:
    std::vector<WorldPreset> worlds_;
    std::vector<FaultPreset> faults_;
    std::vector<StackPreset> stacks_;
    std::vector<std::uint64_t> seeds_;
};

// ---- Preset registry -------------------------------------------------

/** Obstacle-free 300 m straight (baseline availability runs). */
WorldPreset openRoadWorld();

/** The Sec. IV scenario: a static wall across the lane at @p wall_x
 *  meters; the stack must stop short of it. */
WorldPreset suddenWallWorld(double wall_x);

/** A pedestrian stepping into the route corridor near @p x, walking
 *  laterally at @p speed m/s (Sec. IV "normal route" traffic). */
WorldPreset crossingPedestrianWorld(double x, double speed);

/** @p count slower vehicles parked/drifting along the corridor,
 *  placed deterministically from the world Rng stream. */
WorldPreset trafficWorld(std::size_t count);

/** No-fault preset (the matrix baseline row). */
FaultPreset noFaultPreset();

/**
 * The 11 named Sec. III-C fault scenarios of the fault matrix
 * (baseline, camera dropout/freeze/latency, perception miss, planning
 * crash, localization hang, slow detection, CAN loss, radar dropout,
 * camera+planning combo). bench_fault_matrix runs exactly these rows.
 */
std::vector<FaultPreset> faultMatrixPresets();

/** Proactive+reactive stack, no health supervision (the "bare"
 *  column of the fault matrix). */
StackPreset bareStack();

/** Bare stack plus HealthMonitor + DegradationManager and stage
 *  watchdogs (the "supervised" column). */
StackPreset supervisedStack();

/** Bare stack running the pipeline in async (backpressure-deferred)
 *  mode — congested cycles park their frame instead of shedding it. */
StackPreset bareAsyncStack();

/** Supervised stack in async mode: the fault matrix's check that
 *  supervision composes with backpressure admission — collision and
 *  availability outcomes must match the sync supervised column. */
StackPreset supervisedAsyncStack();

/** Supervised stack with the pipeline admission window forced to one
 *  frame: no cross-frame overlap, every planning cycle that would
 *  pipeline sheds its frame instead. The synchronous baseline of the
 *  bench_fleet_sweep pipeline-modes comparison (the supervised stack's
 *  default window of 3 is the async column). */
StackPreset syncPipelineStack();

} // namespace sov::fleet
