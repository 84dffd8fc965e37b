/**
 * @file
 * Tests for the baseline mappings: low-order interleaving, field
 * interleaving, and row-rotation skewing.
 */

#include <gtest/gtest.h>

#include <set>

#include "access/ordering.h"
#include "mapping/analysis.h"
#include "mapping/interleave.h"
#include "mapping/skew.h"
#include "mapping/xor_matched.h"
#include "memsys/multi_port.h"
#include "test_util.h"
#include "theory/theory.h"

namespace cfva {
namespace {

TEST(LowOrderInterleave, ModuleAndDisplacement)
{
    const LowOrderInterleave map(3);
    EXPECT_EQ(map.modules(), 8u);
    EXPECT_EQ(map.moduleOf(0), 0u);
    EXPECT_EQ(map.moduleOf(13), 5u);
    EXPECT_EQ(map.displacementOf(13), 1u);
    EXPECT_EQ(map.addressOf(5, 1), 13u);
}

TEST(LowOrderInterleave, RoundTrip)
{
    const LowOrderInterleave map(4);
    for (Addr a = 0; a < 2048; ++a) {
        const auto loc = map.locate(a);
        EXPECT_EQ(map.addressOf(loc.module, loc.displacement), a);
    }
}

TEST(LowOrderInterleave, OddStridesConflictFreeOnly)
{
    // The introduction's baseline: interleaving is conflict free for
    // odd strides (x = 0) and for no other family on a matched
    // memory.
    const LowOrderInterleave map(3);
    const std::uint64_t t_cycles = 8;
    for (unsigned x = 0; x <= 3; ++x) {
        for (std::uint64_t sigma : {1ull, 3ull, 7ull}) {
            const auto td = canonicalTemporal(
                map, 5, Stride::fromFamily(sigma, x), 128);
            EXPECT_EQ(isConflictFree(td, t_cycles), x == 0)
                << "sigma=" << sigma << " x=" << x;
        }
    }
}

TEST(FieldInterleave, EquivalentToShiftedModulo)
{
    const FieldInterleave map(3, 4);
    for (Addr a = 0; a < 4096; ++a)
        EXPECT_EQ(map.moduleOf(a), (a >> 4) & 7);
}

TEST(FieldInterleave, RoundTrip)
{
    const FieldInterleave map(3, 4);
    std::set<std::pair<ModuleId, Addr>> seen;
    for (Addr a = 0; a < 4096; ++a) {
        const auto loc = map.locate(a);
        EXPECT_TRUE(seen.insert({loc.module, loc.displacement}).second);
        EXPECT_EQ(map.addressOf(loc.module, loc.displacement), a);
    }
}

TEST(FieldInterleave, ConflictFreeForFamilyP)
{
    // Interleaving on field p = s is the conclusions' alternative to
    // Eq. 1: in-order conflict free exactly for the family x = p.
    const unsigned p = 4;
    const FieldInterleave map(3, p);
    const std::uint64_t t_cycles = 8;
    for (unsigned x = 2; x <= 6; ++x) {
        for (std::uint64_t sigma : {1ull, 5ull}) {
            const auto td = canonicalTemporal(
                map, 3, Stride::fromFamily(sigma, x), 256);
            EXPECT_EQ(isConflictFree(td, t_cycles), x == p)
                << "sigma=" << sigma << " x=" << x;
        }
    }
}

TEST(Skew, RejectsBadParameters)
{
    test::ScopedPanicThrow guard;
    EXPECT_THROW(SkewedMapping(3, 2, 1), std::runtime_error);
    EXPECT_THROW(SkewedMapping(3, 3, 2), std::runtime_error);
}

TEST(Skew, RoundTrip)
{
    const SkewedMapping map(3, 4, 3);
    std::set<std::pair<ModuleId, Addr>> seen;
    for (Addr a = 0; a < 4096; ++a) {
        const auto loc = map.locate(a);
        EXPECT_TRUE(seen.insert({loc.module, loc.displacement}).second);
        EXPECT_EQ(map.addressOf(loc.module, loc.displacement), a);
    }
}

TEST(Skew, RowRotation)
{
    const SkewedMapping map(3, 3, 1);
    // Row 0 unrotated, row 1 rotated by one, etc.
    EXPECT_EQ(map.moduleOf(0), 0u);
    EXPECT_EQ(map.moduleOf(8), 1u);  // 8 + 1*1 mod 8
    EXPECT_EQ(map.moduleOf(16), 2u);
    EXPECT_EQ(map.moduleOf(9), 2u);
}

TEST(Skew, PeriodStructureMatchesXorForSameS)
{
    // Conclusions: skewing with a suitable row size has the same
    // conflict-free behavior as Eq. 1.  With r = s, the skewed
    // canonical stream is conflict free for the x = s family.
    const unsigned t = 3, s = 4;
    const SkewedMapping skew(t, s, 1);
    const XorMatchedMapping xorMap(t, s);
    const std::uint64_t t_cycles = 1u << t;
    for (std::uint64_t sigma : {1ull, 3ull}) {
        for (Addr a1 : {0ull, 7ull, 33ull}) {
            const Stride stride = Stride::fromFamily(sigma, s);
            EXPECT_TRUE(isConflictFree(
                canonicalTemporal(skew, a1, stride, 256), t_cycles));
            EXPECT_TRUE(isConflictFree(
                canonicalTemporal(xorMap, a1, stride, 256), t_cycles));
        }
    }
}

TEST(Skew, ConflictFreeOrderingCarriesOver)
{
    // Conclusions: "the same results can be achieved with
    // interleaving or with skewing".  With r = s and delta = 1 the
    // Lemma 2 subsequences (increment sigma*2^s) step the skewed
    // module number by sigma*(2^s + 1) mod M — odd, hence a
    // permutation — so conflictFreeOrderByKey applies verbatim and
    // the whole window reaches minimum latency.
    const unsigned t = 3, s = 4, lambda = 7;
    const SkewedMapping skew(t, s, 1);
    const MemConfig cfg{t, t, 1, 1};
    const std::uint64_t len = 1u << lambda;

    for (unsigned x = 0; x <= s; ++x) {
        for (std::uint64_t sigma : {1ull, 3ull, 7ull}) {
            for (Addr a1 : {0ull, 11ull, 321ull}) {
                const Stride stride = Stride::fromFamily(sigma, x);
                const auto plan =
                    makeSubsequencePlan(t, s, stride, len);
                const auto stream = conflictFreeOrderByKey(
                    a1, plan,
                    [&](Addr a) { return skew.moduleOf(a); });
                const auto r = simulateAccess(cfg, skew, stream);
                EXPECT_TRUE(r.conflictFree)
                    << "x=" << x << " sigma=" << sigma
                    << " a1=" << a1;
                EXPECT_EQ(r.latency,
                          theory::minimumLatency(len, 8));
            }
        }
    }
}

TEST(FieldInterleave, ConflictFreeOrderingCarriesOver)
{
    // Ditto for interleaving on the internal field p = s: the
    // subsequence increment sigma*2^s steps the module field by
    // sigma, a permutation mod M.
    const unsigned t = 3, s = 4, lambda = 7;
    const FieldInterleave field(t, s);
    const MemConfig cfg{t, t, 1, 1};
    const std::uint64_t len = 1u << lambda;

    for (unsigned x = 0; x <= s; ++x) {
        for (std::uint64_t sigma : {1ull, 5ull}) {
            const Stride stride = Stride::fromFamily(sigma, x);
            const auto plan = makeSubsequencePlan(t, s, stride, len);
            const auto stream = conflictFreeOrderByKey(
                0, plan, [&](Addr a) { return field.moduleOf(a); });
            const auto r = simulateAccess(cfg, field, stream);
            EXPECT_TRUE(r.conflictFree) << "x=" << x;
        }
    }
}

TEST(Skew, TMatchedWindowLikeXor)
{
    // Skewing spreads the same families as Eq. 1: x <= s gives a
    // T-matched period.
    const unsigned t = 3, s = 4;
    const SkewedMapping skew(t, s, 1);
    const std::uint64_t t_cycles = 1u << t;
    for (unsigned x = 0; x <= 6; ++x) {
        const Stride stride = Stride::fromFamily(3, x);
        const bool matched = isTMatched(skew, 11, stride, 128,
                                        t_cycles);
        EXPECT_EQ(matched, x <= s) << "x=" << x;
    }
}

} // namespace
} // namespace cfva
