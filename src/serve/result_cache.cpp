#include "serve/result_cache.h"

#include "core/hash.h"
#include "core/logging.h"

namespace sov::serve {

std::uint64_t
scenarioFingerprint(const fleet::ScenarioSpec &spec,
                    std::uint64_t master_seed)
{
    std::uint64_t h = kFnv1aTruncatedOffset;
    fnv1aU64(h, master_seed);
    fnv1aU64(h, spec.seed);

    // World preset: name stands for the build closure (registry
    // discipline); horizon and route geometry are hashed outright
    // because the registry parameterizes them per entry.
    fnv1aSizedString(h, spec.world.name);
    fnv1aDouble(h, spec.world.horizon_s);
    fnv1aU64(h, spec.world.route.size());
    for (const Vec2 &p : spec.world.route.points()) {
        fnv1aDouble(h, p.x());
        fnv1aDouble(h, p.y());
    }

    // Fault preset: every spec field is a value; hash them all.
    fnv1aSizedString(h, spec.faults.name);
    fnv1aU64(h, spec.faults.specs.size());
    for (const fault::FaultSpec &f : spec.faults.specs) {
        fnv1aSizedString(h, f.name);
        fnv1aU64(h, static_cast<std::uint64_t>(f.target));
        fnv1aU64(h, static_cast<std::uint64_t>(f.mode));
        fnv1aSizedString(h, f.stage);
        fnv1aU64(h, static_cast<std::uint64_t>(f.window_start.ns()));
        fnv1aU64(h, static_cast<std::uint64_t>(f.window_end.ns()));
        fnv1aDouble(h, f.probability);
        fnv1aU64(h, static_cast<std::uint64_t>(f.latency.ns()));
        fnv1aDouble(h, f.multiplier);
        fnv1aDouble(h, f.corruption_sigma);
    }

    // Stack preset: name for the registry identity, plus the loop
    // knobs the registry actually varies — a second line of defense
    // should two same-named stacks ever diverge on these.
    fnv1aSizedString(h, spec.stack.name);
    fnv1aU64(h, spec.stack.loop.max_frames_in_flight);
    fnv1aU64(h, static_cast<std::uint64_t>(spec.stack.loop.pipeline_mode));
    fnv1aU64(h, spec.stack.loop.enable_health ? 1 : 0);
    fnv1aU64(h, spec.stack.loop.enable_reactive ? 1 : 0);
    fnv1aU64(h, spec.stack.loop.enable_proactive ? 1 : 0);
    fnv1aDouble(h, spec.stack.loop.cruise_speed);
    fnv1aDouble(h, spec.stack.loop.planner_rate_hz);
    return h;
}

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {}

std::optional<CachedResult>
ResultCache::lookup(std::uint64_t key)
{
    if (capacity_ == 0)
        return std::nullopt;
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second); // refresh recency
    ++hits_;
    return it->second->second;
}

void
ResultCache::insert(std::uint64_t key, CachedResult value)
{
    if (capacity_ == 0)
        return;
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
        it->second->second = std::move(value);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (entries_.size() >= capacity_) {
        SOV_ASSERT(!lru_.empty());
        entries_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
    }
    lru_.emplace_front(key, std::move(value));
    entries_.emplace(key, lru_.begin());
}

} // namespace sov::serve
