/**
 * @file
 * FNV-1a (64-bit): the one hash behind every bit-identity fingerprint
 * in the tree — schedules, traces, metric registries, fleet reports,
 * triage tables, result-cache keys, RNG fork tags and bench digests.
 *
 * The helpers fold values into a running hash @c h in place, so a
 * fingerprint is a sequence of typed folds starting from an offset
 * basis. Integers and doubles fold their 8 in-memory bytes (doubles by
 * bit pattern: "bit-identical" means exactly that).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace sov {

/** The 64-bit FNV prime. */
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/** The standard 64-bit FNV offset basis (14695981039346656037). Used
 *  by schedule, trace and metric fingerprints and RNG fork tags. */
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/**
 * The standard basis with its last decimal digit dropped
 * (1469598103934665603). The fleet report, triage table, result cache
 * and bench harness digests were defined with it, and every committed
 * fleet, triage and cache fingerprint depends on it; switching them to
 * the standard basis would move all of those, so it stays a distinct,
 * named basis.
 */
inline constexpr std::uint64_t kFnv1aTruncatedOffset =
    1469598103934665603ULL;

/** Fold @p n bytes at @p data into @p h. */
inline void
fnv1aBytes(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnv1aPrime;
    }
}

/** One-shot hash of @p n bytes, continuing from @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h = kFnv1aOffset)
{
    fnv1aBytes(h, data, n);
    return h;
}

/** Fold the in-memory bytes of a trivially copyable value. */
template <typename T>
inline void
fnv1aPod(std::uint64_t &h, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    fnv1aBytes(h, &v, sizeof(v));
}

/** Fold @p v widened to 8 bytes. */
inline void
fnv1aU64(std::uint64_t &h, std::uint64_t v)
{
    fnv1aPod(h, v);
}

/**
 * Fold @p v as one FNV-1a step over the whole 64-bit word: xor it in,
 * then multiply once. Not byte-compatible with fnv1aU64, but eight
 * times cheaper; for digests folded on hot paths (the simulator's
 * event-order digest folds two words per executed event).
 */
inline void
fnv1aWord(std::uint64_t &h, std::uint64_t v)
{
    h ^= v;
    h *= kFnv1aPrime;
}

/** Fold the bit pattern of @p v. */
inline void
fnv1aDouble(std::uint64_t &h, double v)
{
    fnv1aPod(h, v);
}

/** Fold a string as its length (8 bytes) followed by its bytes. */
inline void
fnv1aSizedString(std::uint64_t &h, const std::string &s)
{
    fnv1aU64(h, s.size());
    fnv1aBytes(h, s.data(), s.size());
}

/** Fold a string as its bytes followed by a NUL terminator. */
inline void
fnv1aTerminatedString(std::uint64_t &h, const std::string &s)
{
    fnv1aBytes(h, s.data(), s.size() + 1);
}

} // namespace sov
