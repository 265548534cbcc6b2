// Golden fingerprints: four small deterministic sets whose FleetReport
// and triage fingerprints are pinned to recorded constants. Every
// other determinism check folds its reference from the same build, so
// this is the one gate that notices a change that moves *every* thread
// count and backend together (a geometry or event-order change). The
// sets mirror the benches that publish these fingerprints:
//
//  - bench_fleet_sweep smoke=1          -> 48b1bea500bf0196
//  - bench_fault_matrix (full, seed 1)  -> 4946764c63613b35
//  - bench_scenario_fuzz smoke=1        -> a1bbbef1e45adddd (fleet),
//                                          53a5f933da213b7b (triage)
//  - bench_fleet_sweep, all six worlds and every fault preset at one
//    seed (smoke drops traffic-6 and crossing-ped-150, the worlds
//    whose far obstacles the physics-step broadphase skips)
//                                       -> b85c3f599df9200d (fleet),
//                                          3ba2986dc7b7bcd3 (triage)
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/kernels.h"
#include "fleet/fleet_runner.h"
#include "fleet/fuzzer.h"
#include "fleet/triage.h"

namespace sov::fleet {
namespace {

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(GoldenFingerprints, FleetSweepSmokeMatrix)
{
    ScenarioMatrix matrix;
    for (double wall_x : {30.0, 40.0, 50.0})
        matrix.addWorld(suddenWallWorld(wall_x));
    matrix.addWorld(openRoadWorld());
    matrix.addWorld(crossingPedestrianWorld(150.0, 0.5));
    matrix.addWorld(trafficWorld(6));
    matrix.addFaults(faultMatrixPresets());
    matrix.addStack(bareStack());
    matrix.addStack(supervisedStack());
    matrix.smokeOnly();
    // Same axis rewrite as the bench: horizon and kernel tier.
    ScenarioMatrix out;
    for (WorldPreset w : matrix.worlds()) {
        w.horizon_s = 40.0;
        out.addWorld(std::move(w));
    }
    out.addFaults(matrix.faults());
    for (StackPreset s : matrix.stacks()) {
        s.pipeline.backend = defaultKernelBackend();
        out.addStack(std::move(s));
    }
    out.addSeed(1);
    const FleetReport report = FleetRunner(FleetConfig{2, 1}).run(out);
    EXPECT_EQ(hex(report.fingerprint()), "48b1bea500bf0196");
}

TEST(GoldenFingerprints, FullSweepMatrix)
{
    ScenarioMatrix matrix;
    for (double wall_x : {30.0, 40.0, 50.0}) {
        WorldPreset w = suddenWallWorld(wall_x);
        w.horizon_s = 40.0;
        matrix.addWorld(std::move(w));
    }
    for (WorldPreset w : {openRoadWorld(), crossingPedestrianWorld(150.0, 0.5),
                          trafficWorld(6)}) {
        w.horizon_s = 40.0;
        matrix.addWorld(std::move(w));
    }
    matrix.addFaults(faultMatrixPresets());
    for (StackPreset s : {bareStack(), supervisedStack()}) {
        s.pipeline.backend = defaultKernelBackend();
        matrix.addStack(std::move(s));
    }
    matrix.addSeed(1);
    const std::vector<ScenarioSpec> scenarios = matrix.enumerate();
    ASSERT_EQ(scenarios.size(), 132u);

    // The triage facts (min_gap, min_ttc, nearest obstacle) are not
    // part of the hashed outcome row; pin them separately.
    std::vector<TriageRow> slots(scenarios.size());
    FleetConfig cfg;
    cfg.threads = 2;
    cfg.master_seed = 1;
    cfg.scenario_hook = [&slots](const ScenarioSpec &spec,
                                 const ClosedLoopResult &r) {
        TriageRow row;
        row.scenario = spec.name;
        row.index = spec.index;
        row.collided = r.collided;
        row.min_gap = r.min_gap;
        row.min_ttc = r.min_ttc;
        row.offender = r.nearest_obstacle;
        slots[spec.index] = std::move(row);
    };
    const FleetReport report = FleetRunner(cfg).run(scenarios);
    TriageReport triage;
    for (TriageRow &row : slots)
        triage.addRow(std::move(row));
    EXPECT_EQ(hex(report.fingerprint()), "b85c3f599df9200d");
    EXPECT_EQ(hex(triage.fingerprint()), "3ba2986dc7b7bcd3");
}

TEST(GoldenFingerprints, FullFaultMatrix)
{
    WorldPreset world = suddenWallWorld(40.0);
    world.horizon_s = 40.0;
    ScenarioMatrix matrix;
    matrix.addWorld(world)
        .addFaults(faultMatrixPresets())
        .addStack(bareStack())
        .addStack(supervisedStack())
        .addStack(bareAsyncStack())
        .addStack(supervisedAsyncStack())
        .addSeed(1);
    const FleetReport report = FleetRunner(FleetConfig{2, 1}).run(matrix);
    EXPECT_EQ(report.outcomes().size(), 44u);
    EXPECT_EQ(hex(report.fingerprint()), "4946764c63613b35");
}

TEST(GoldenFingerprints, ScenarioFuzzSmokeSet)
{
    FuzzConfig fuzz;
    fuzz.base_seed = 1;
    fuzz.worlds = 12;
    fuzz.horizon_s = 20.0;
    ScenarioMatrix matrix;
    for (WorldPreset &w : fuzzWorlds(fuzz))
        matrix.addWorld(std::move(w));
    matrix.addFault(noFaultPreset());
    StackPreset stack = bareStack();
    stack.pipeline.backend = defaultKernelBackend();
    matrix.addStack(stack);
    matrix.addSeed(1);
    const std::vector<ScenarioSpec> scenarios = matrix.enumerate();

    std::vector<TriageRow> slots(scenarios.size());
    FleetConfig cfg;
    cfg.threads = 2;
    cfg.master_seed = 1;
    cfg.scenario_hook = [&slots](const ScenarioSpec &spec,
                                 const ClosedLoopResult &r) {
        TriageRow row;
        row.scenario = spec.name;
        row.index = spec.index;
        // World names are "fuzz-<seed>" (fuzzWorldPreset).
        row.fuzz_seed = std::stoull(
            spec.world.name.substr(spec.world.name.rfind('-') + 1));
        row.collided = r.collided;
        row.min_gap = r.min_gap;
        row.min_ttc = r.min_ttc;
        row.offender = r.nearest_obstacle;
        slots[spec.index] = std::move(row);
    };
    const FleetReport report = FleetRunner(cfg).run(scenarios);
    TriageReport triage;
    for (TriageRow &row : slots)
        triage.addRow(std::move(row));
    EXPECT_EQ(hex(report.fingerprint()), "a1bbbef1e45adddd");
    EXPECT_EQ(hex(triage.fingerprint()), "53a5f933da213b7b");
}

} // namespace
} // namespace sov::fleet
