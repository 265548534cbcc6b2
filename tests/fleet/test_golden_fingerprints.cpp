// Golden fingerprints: four small deterministic sets whose FleetReport
// and triage fingerprints are pinned to recorded constants. Every
// other determinism check folds its reference from the same build, so
// this is the one gate that notices a change that moves *every* thread
// count together (a geometry or event-order change). The
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
//
// GoldenEventOrder pins the executed-event count and event-order
// digest (ClosedLoopResult::events_executed / event_order_digest) of
// every scenario of the last two sets, so an event-core rewrite must
// keep the exact event order, not only the outcomes.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/hash.h"
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

/** All six sweep worlds x every fault preset x bare / supervised, one
 *  seed, 40 s horizon. */
std::vector<ScenarioSpec>
fullSweepScenarios()
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
    matrix.addStack(bareStack());
    matrix.addStack(supervisedStack());
    matrix.addSeed(1);
    return matrix.enumerate();
}

/** bench_fault_matrix's full matrix at seed 1: the 40 m wall x every
 *  fault preset x the four stacks. */
ScenarioMatrix
fullFaultMatrix()
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
    return matrix;
}

/** Total events executed and a digest of every scenario's event count
 *  and event-order digest, folded in scenario-index order. */
struct EventOrderPin
{
    std::uint64_t events = 0;
    std::uint64_t digest = kFnv1aOffset;
};

EventOrderPin
eventOrderPin(const std::vector<ScenarioSpec> &scenarios)
{
    struct Slot
    {
        std::uint64_t events = 0;
        std::uint64_t digest = 0;
    };
    std::vector<Slot> slots(scenarios.size());
    FleetConfig cfg;
    cfg.threads = 2;
    cfg.master_seed = 1;
    cfg.scenario_hook = [&slots](const ScenarioSpec &spec,
                                 const ClosedLoopResult &r) {
        slots[spec.index] = Slot{r.events_executed, r.event_order_digest};
    };
    FleetRunner(cfg).run(scenarios);
    EventOrderPin pin;
    for (const Slot &slot : slots) {
        pin.events += slot.events;
        fnv1aU64(pin.digest, slot.events);
        fnv1aU64(pin.digest, slot.digest);
    }
    return pin;
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
    // Same axis rewrite as the bench: the horizon.
    ScenarioMatrix out;
    for (WorldPreset w : matrix.worlds()) {
        w.horizon_s = 40.0;
        out.addWorld(std::move(w));
    }
    out.addFaults(matrix.faults());
    for (const StackPreset &s : matrix.stacks())
        out.addStack(s);
    out.addSeed(1);
    const FleetReport report = FleetRunner(FleetConfig{2, 1}).run(out);
    EXPECT_EQ(hex(report.fingerprint()), "48b1bea500bf0196");
}

TEST(GoldenFingerprints, FullSweepMatrix)
{
    const std::vector<ScenarioSpec> scenarios = fullSweepScenarios();
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
    const FleetReport report =
        FleetRunner(FleetConfig{2, 1}).run(fullFaultMatrix());
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
    matrix.addStack(bareStack());
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

// Event-order pins: the closed loop's discrete-event schedule itself,
// not just its outcomes, over the two full matrices above. A change to
// the event core that reorders, adds or drops a single event moves
// these even when every outcome row stays the same.

TEST(GoldenEventOrder, FullSweepMatrix)
{
    const EventOrderPin pin = eventOrderPin(fullSweepScenarios());
    EXPECT_EQ(pin.events, 693587u);
    EXPECT_EQ(hex(pin.digest), "e8f429427b02af97");
}

TEST(GoldenEventOrder, FullFaultMatrix)
{
    const EventOrderPin pin = eventOrderPin(fullFaultMatrix().enumerate());
    EXPECT_EQ(pin.events, 85286u);
    EXPECT_EQ(hex(pin.digest), "19900e8103825640");
}

} // namespace
} // namespace sov::fleet
