#include "fleet/scenario.h"

#include <cmath>
#include <string>
#include <utility>

#include "core/logging.h"

namespace sov::fleet {

void
checkWorldPreset(const WorldPreset &world)
{
    if (!std::isfinite(world.horizon_s) || world.horizon_s <= 0.0) {
        SOV_FATAL("world '" + world.name + "': horizon_s " +
                  std::to_string(world.horizon_s) +
                  " is not a positive finite number of seconds");
    }
    const double length = world.route.length();
    if (world.route.size() < 2 || !std::isfinite(length) || length <= 0.0) {
        SOV_FATAL("world '" + world.name + "': route of " +
                  std::to_string(world.route.size()) + " points and length " +
                  std::to_string(length) +
                  " (needs two or more points and a positive finite length)");
    }
}

ScenarioMatrix &
ScenarioMatrix::addWorld(WorldPreset world)
{
    checkWorldPreset(world);
    worlds_.push_back(std::move(world));
    return *this;
}

ScenarioMatrix &
ScenarioMatrix::addFault(FaultPreset preset)
{
    faults_.push_back(std::move(preset));
    return *this;
}

ScenarioMatrix &
ScenarioMatrix::addFaults(const std::vector<FaultPreset> &presets)
{
    for (const FaultPreset &p : presets)
        faults_.push_back(p);
    return *this;
}

ScenarioMatrix &
ScenarioMatrix::addStack(StackPreset stack)
{
    SOV_ASSERT(stack.loop.faults == nullptr);
    stacks_.push_back(std::move(stack));
    return *this;
}

ScenarioMatrix &
ScenarioMatrix::addSeed(std::uint64_t seed)
{
    seeds_.push_back(seed);
    return *this;
}

ScenarioMatrix &
ScenarioMatrix::addSeeds(std::uint64_t base, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        seeds_.push_back(base + i);
    return *this;
}

ScenarioMatrix &
ScenarioMatrix::smokeOnly()
{
    std::vector<WorldPreset> worlds;
    for (WorldPreset &w : worlds_)
        if (w.smoke)
            worlds.push_back(std::move(w));
    worlds_ = std::move(worlds);
    std::vector<FaultPreset> faults;
    for (FaultPreset &f : faults_)
        if (f.smoke)
            faults.push_back(std::move(f));
    faults_ = std::move(faults);
    return *this;
}

std::size_t
ScenarioMatrix::size() const
{
    const std::size_t f = faults_.empty() ? 1 : faults_.size();
    const std::size_t st = stacks_.empty() ? 1 : stacks_.size();
    const std::size_t se = seeds_.empty() ? 1 : seeds_.size();
    return worlds_.size() * f * st * se;
}

std::vector<ScenarioSpec>
ScenarioMatrix::enumerate() const
{
    SOV_ASSERT(!worlds_.empty());
    std::vector<FaultPreset> faults =
        faults_.empty() ? std::vector<FaultPreset>{noFaultPreset()}
                        : faults_;
    std::vector<StackPreset> stacks =
        stacks_.empty() ? std::vector<StackPreset>{supervisedStack()}
                        : stacks_;
    std::vector<std::uint64_t> seeds =
        seeds_.empty() ? std::vector<std::uint64_t>{1} : seeds_;

    std::vector<ScenarioSpec> out;
    out.reserve(worlds_.size() * faults.size() * stacks.size() *
                seeds.size());
    for (const WorldPreset &w : worlds_) {
        for (const FaultPreset &f : faults) {
            for (const StackPreset &st : stacks) {
                for (std::uint64_t seed : seeds) {
                    ScenarioSpec spec;
                    spec.name = w.name + "/" + f.name + "/" + st.name +
                                "#s" + std::to_string(seed);
                    spec.index = out.size();
                    spec.world = w;
                    spec.faults = f;
                    spec.stack = st;
                    spec.seed = seed;
                    out.push_back(std::move(spec));
                }
            }
        }
    }
    return out;
}

// ---- World presets ---------------------------------------------------

namespace {

Obstacle
wallObstacle(double x)
{
    Obstacle o;
    o.cls = ObjectClass::Static;
    o.footprint = OrientedBox2{Pose2{Vec2(x, 0.0), 0.0}, 0.5, 2.5};
    o.height = 2.0;
    return o;
}

} // namespace

WorldPreset
openRoadWorld()
{
    WorldPreset w;
    w.name = "open-road";
    w.smoke = true;
    w.build = [](World &, Rng &) {};
    return w;
}

WorldPreset
suddenWallWorld(double wall_x)
{
    WorldPreset w;
    w.name = "sudden-wall-" + std::to_string(static_cast<int>(wall_x));
    w.smoke = true;
    w.build = [wall_x](World &world, Rng &) {
        world.addObstacle(wallObstacle(wall_x));
    };
    return w;
}

WorldPreset
crossingPedestrianWorld(double x, double speed)
{
    WorldPreset w;
    w.name = "crossing-ped-" + std::to_string(static_cast<int>(x));
    w.build = [x, speed](World &world, Rng &) {
        Obstacle ped;
        ped.cls = ObjectClass::Pedestrian;
        ped.footprint =
            OrientedBox2{Pose2{Vec2(x, -8.0), 0.0}, 0.3, 0.3};
        ped.velocity = Vec2(0.0, speed);
        ped.height = 1.7;
        world.addObstacle(ped);
    };
    return w;
}

WorldPreset
trafficWorld(std::size_t count)
{
    WorldPreset w;
    w.name = "traffic-" + std::to_string(count);
    w.build = [count](World &world, Rng &rng) {
        for (std::size_t i = 0; i < count; ++i) {
            Obstacle car;
            car.cls = ObjectClass::Car;
            // Off-lane parked/drifting traffic along the corridor;
            // the lane itself stays drivable so collision counts
            // measure the stack, not an impossible world.
            const double x = rng.uniform(30.0, 280.0);
            const double side = rng.bernoulli(0.5) ? 1.0 : -1.0;
            const double y = side * rng.uniform(3.5, 8.0);
            car.footprint =
                OrientedBox2{Pose2{Vec2(x, y), 0.0}, 2.0, 0.9};
            car.velocity = Vec2(rng.uniform(-0.5, 0.5), 0.0);
            car.height = 1.5;
            world.addObstacle(car);
        }
    };
    return w;
}

// ---- Fault presets ---------------------------------------------------

namespace {

fault::FaultSpec
spec(const std::string &name, fault::FaultTarget target,
     fault::FaultMode mode)
{
    fault::FaultSpec s;
    s.name = name;
    s.target = target;
    s.mode = mode;
    return s;
}

} // namespace

FaultPreset
noFaultPreset()
{
    return FaultPreset{"no-fault", {}, true};
}

std::vector<FaultPreset>
faultMatrixPresets()
{
    using fault::FaultMode;
    using fault::FaultTarget;
    std::vector<FaultPreset> rows;

    rows.push_back(noFaultPreset());

    {
        FaultPreset p{"cam-dropout@1s", {}, true};
        auto cam = spec("cam-dead", FaultTarget::Camera, FaultMode::Dropout);
        cam.window_start = Timestamp::seconds(1.0);
        p.specs.push_back(cam);
        rows.push_back(p);
    }
    {
        FaultPreset p{"cam-freeze@1s", {}, false};
        auto cam = spec("cam-freeze", FaultTarget::Camera, FaultMode::Freeze);
        cam.window_start = Timestamp::seconds(1.0);
        p.specs.push_back(cam);
        rows.push_back(p);
    }
    {
        FaultPreset p{"cam-latency150ms-p50", {}, false};
        auto cam =
            spec("cam-late", FaultTarget::Camera, FaultMode::LatencySpike);
        cam.probability = 0.5;
        cam.latency = Duration::millisF(150.0);
        p.specs.push_back(cam);
        rows.push_back(p);
    }
    {
        FaultPreset p{"perception-miss-p80", {}, false};
        auto miss =
            spec("vision-miss", FaultTarget::Perception, FaultMode::Dropout);
        miss.probability = 0.8;
        p.specs.push_back(miss);
        rows.push_back(p);
    }
    {
        FaultPreset p{"planning-crash-p35", {}, true};
        auto crash = spec("planning-crash", FaultTarget::PipelineStage,
                          FaultMode::Crash);
        crash.stage = "planning";
        crash.probability = 0.35;
        crash.latency = Duration::millisF(5.0);
        p.specs.push_back(crash);
        rows.push_back(p);
    }
    {
        FaultPreset p{"loc-hang@2s", {}, false};
        auto hang =
            spec("loc-hang", FaultTarget::PipelineStage, FaultMode::Hang);
        hang.stage = "localization";
        hang.window_start = Timestamp::seconds(2.0);
        hang.window_end = Timestamp::seconds(2.2);
        p.specs.push_back(hang);
        rows.push_back(p);
    }
    {
        FaultPreset p{"detection-5x", {}, false};
        auto slow = spec("det-slow", FaultTarget::PipelineStage,
                         FaultMode::LatencyMultiplier);
        slow.stage = "detection";
        slow.multiplier = 5.0;
        p.specs.push_back(slow);
        rows.push_back(p);
    }
    {
        FaultPreset p{"can-loss-p50", {}, true};
        auto loss = spec("can-loss", FaultTarget::CanBus, FaultMode::Dropout);
        loss.probability = 0.5;
        p.specs.push_back(loss);
        rows.push_back(p);
    }
    {
        FaultPreset p{"radar-dropout@1s", {}, true};
        auto radar =
            spec("radar-dead", FaultTarget::Radar, FaultMode::Dropout);
        radar.window_start = Timestamp::seconds(1.0);
        p.specs.push_back(radar);
        rows.push_back(p);
    }
    {
        FaultPreset p{"cam+planning-combo", {}, false};
        auto cam = spec("cam-dead", FaultTarget::Camera, FaultMode::Dropout);
        cam.window_start = Timestamp::seconds(2.0);
        cam.probability = 0.7;
        auto crash = spec("planning-crash", FaultTarget::PipelineStage,
                          FaultMode::Crash);
        crash.stage = "planning";
        crash.probability = 0.3;
        p.specs.push_back(cam);
        p.specs.push_back(crash);
        rows.push_back(p);
    }
    return rows;
}

// ---- Stack presets ---------------------------------------------------

StackPreset
bareStack()
{
    StackPreset s;
    s.name = "bare";
    return s;
}

StackPreset
supervisedStack()
{
    StackPreset s;
    s.name = "supervised";
    s.loop.enable_health = true;
    runtime::StagePolicy watchdog;
    watchdog.timeout = Duration::millisF(400.0);
    watchdog.max_retries = 1;
    s.loop.stage_policy = watchdog;
    return s;
}

StackPreset
bareAsyncStack()
{
    StackPreset s = bareStack();
    s.name = "bare-async";
    s.loop.pipeline_mode = PipelineMode::Async;
    return s;
}

StackPreset
supervisedAsyncStack()
{
    StackPreset s = supervisedStack();
    s.name = "supervised-async";
    s.loop.pipeline_mode = PipelineMode::Async;
    return s;
}

StackPreset
syncPipelineStack()
{
    StackPreset s = supervisedStack();
    s.name = "sync-pipeline";
    s.loop.max_frames_in_flight = 1;
    return s;
}

} // namespace sov::fleet
