#include <gtest/gtest.h>

#include <string>

#include "core/hash.h"

namespace sov {
namespace {

TEST(Fnv1a, MatchesKnownVectors)
{
    // Published FNV-1a 64-bit vectors on the standard basis.
    EXPECT_EQ(fnv1a("", 0), kFnv1aOffset);
    EXPECT_EQ(kFnv1aOffset, 14695981039346656037ULL);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ULL);

    // The truncated basis: same round (xor the byte, multiply by the
    // prime), different start.
    EXPECT_EQ(fnv1a("", 0, kFnv1aTruncatedOffset), kFnv1aTruncatedOffset);
    EXPECT_EQ(fnv1a("a", 1, kFnv1aTruncatedOffset),
              (kFnv1aTruncatedOffset ^ std::uint64_t{'a'}) *
                  1099511628211ULL);

    // Chaining through h must equal one pass over the concatenation,
    // on either basis.
    for (const std::uint64_t basis : {kFnv1aOffset, kFnv1aTruncatedOffset}) {
        EXPECT_EQ(fnv1a("b", 1, fnv1a("a", 1, basis)),
                  fnv1a("ab", 2, basis));
    }
}

TEST(Fnv1a, TypedFoldsHashTheirBytes)
{
    // Integers widen to 8 bytes; doubles fold their bit pattern.
    std::uint64_t a = kFnv1aOffset;
    fnv1aU64(a, 7u);
    const std::uint64_t seven = 7;
    EXPECT_EQ(a, fnv1a(&seven, sizeof(seven)));

    std::uint64_t b = kFnv1aOffset;
    fnv1aDouble(b, -0.0);
    std::uint64_t c = kFnv1aOffset;
    fnv1aDouble(c, 0.0);
    EXPECT_NE(b, c);

    // Sized strings are length-prefixed; terminated strings end in NUL.
    std::uint64_t sized = kFnv1aOffset;
    fnv1aSizedString(sized, "ab");
    std::uint64_t expect_sized = kFnv1aOffset;
    fnv1aU64(expect_sized, 2);
    fnv1aBytes(expect_sized, "ab", 2);
    EXPECT_EQ(sized, expect_sized);

    std::uint64_t terminated = kFnv1aOffset;
    fnv1aTerminatedString(terminated, "ab");
    EXPECT_EQ(terminated, fnv1a("ab", 3));
}

} // namespace
} // namespace sov
