#include "core/rng.h"

#include <cmath>

#include "core/hash.h"
#include "core/logging.h"

namespace sov {

namespace {

/** SplitMix64; used only to expand seeds into generator state. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitMix64(x);
}

Rng
Rng::fork(const std::string &tag) const
{
    // Mix the current state (not advanced) with the tag hash so forks
    // are independent of each other and of the parent's future output.
    std::uint64_t mixed = s_[0] ^ rotl(s_[1], 17) ^ rotl(s_[2], 31) ^ s_[3];
    return Rng(mixed ^ fnv1a(tag.data(), tag.size()));
}

std::uint64_t
Rng::next()
{
    // xoshiro256++
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    SOV_ASSERT(lo <= hi);
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    return lo + static_cast<std::int64_t>(next() % span);
}

double
Rng::gaussian()
{
    if (has_cached_gauss_) {
        has_cached_gauss_ = false;
        return cached_gauss_;
    }
    // Box–Muller; u1 in (0,1] to avoid log(0).
    double u1 = 1.0 - uniform();
    double u2 = uniform();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    cached_gauss_ = r * std::sin(theta);
    has_cached_gauss_ = true;
    return r * std::cos(theta);
}

double
Rng::gaussian(double mu, double sigma)
{
    return mu + sigma * gaussian();
}

double
Rng::exponential(double lambda)
{
    SOV_ASSERT(lambda > 0.0);
    return -std::log(1.0 - uniform()) / lambda;
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

double
Rng::logNormal(double median, double sigma_log)
{
    SOV_ASSERT(median > 0.0);
    return median * std::exp(sigma_log * gaussian());
}

} // namespace sov
