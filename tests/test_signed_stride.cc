/**
 * @file
 * Tests for the signed-stride overload: descending vectors reuse
 * the ascending machinery with mirrored element indices (the
 * paper's sign-symmetry note in Sec. 2).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "core/access_unit.h"
#include "memsys/backend_cache.h"
#include "test_util.h"
#include "theory/theory.h"

namespace cfva {
namespace {

TEST(SignedStride, PositiveDelegates)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto a = unit.plan(16, std::int64_t{12}, 128);
    const auto b = unit.plan(16, Stride(12), 128);
    ASSERT_EQ(a.stream.size(), b.stream.size());
    for (std::size_t i = 0; i < a.stream.size(); ++i) {
        EXPECT_EQ(a.stream[i].addr, b.stream[i].addr);
        EXPECT_EQ(a.stream[i].element, b.stream[i].element);
    }
}

TEST(SignedStride, DescendingAddressesAndElements)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const Addr a1 = 10000;
    const auto p = unit.plan(a1, std::int64_t{-12}, 128);
    ASSERT_EQ(p.stream.size(), 128u);

    std::set<std::uint64_t> elems;
    for (const auto &req : p.stream) {
        EXPECT_TRUE(elems.insert(req.element).second);
        // Element i of a descending vector lives at a1 - 12*i.
        EXPECT_EQ(req.addr, a1 - 12 * req.element);
    }
    EXPECT_EQ(elems.size(), 128u);
}

TEST(SignedStride, DescendingStillConflictFree)
{
    // |S| = 12 is in the window; the mirrored plan must keep the
    // minimum latency.
    const VectorAccessUnit unit(paperMatchedExample());
    const auto p = unit.plan(10000, std::int64_t{-12}, 128);
    EXPECT_TRUE(p.expectConflictFree);
    const auto r = unit.execute(p);
    EXPECT_TRUE(r.conflictFree);
    EXPECT_EQ(r.latency, theory::minimumLatency(128, 8));
}

TEST(SignedStride, DescendingOutOfWindowStaysCorrect)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto p = unit.plan(50000, std::int64_t{-32}, 128);
    EXPECT_FALSE(p.expectConflictFree);
    const auto r = unit.execute(p);
    ASSERT_EQ(r.deliveries.size(), 128u);
    for (const auto &d : r.deliveries)
        EXPECT_EQ(d.addr, 50000 - 32 * d.element);
}

TEST(SignedStride, RejectsZeroAndUnderflow)
{
    test::ScopedPanicThrow guard;
    const VectorAccessUnit unit(paperMatchedExample());
    EXPECT_THROW(unit.plan(100, std::int64_t{0}, 128),
                 std::runtime_error);
    // a1 too low for 128 descending elements of stride 12.
    EXPECT_THROW(unit.plan(100, std::int64_t{-12}, 128),
                 std::runtime_error);
}

TEST(SignedStride, MostNegativeStrideIsNegatedWithoutOverflow)
{
    // |INT64_MIN| = 2^63 is representable only unsigned; negating
    // the signed value would be undefined behaviour.
    test::ScopedPanicThrow guard;
    const VectorAccessUnit unit(paperMatchedExample());
    const std::int64_t most_negative = INT64_MIN;
    const Addr top = (Addr{1} << 63) + 5;
    const auto p = unit.plan(top, most_negative, 2);
    ASSERT_EQ(p.stream.size(), 2u);
    for (const auto &req : p.stream)
        EXPECT_EQ(req.addr, req.element == 0 ? top : Addr{5});
    EXPECT_EQ(unit.access(top, most_negative, 2).deliveries.size(), 2u);
    // One element below 2^63 the walk underflows.
    EXPECT_THROW(unit.plan(top - 6, most_negative, 2),
                 std::runtime_error);
    EXPECT_THROW(unit.access(top - 6, most_negative, 2),
                 std::runtime_error);
}

TEST(SignedStride, RejectsWalkWhoseSpanOverflows)
{
    // (V-1)*|S| = 4 * 2^62 wraps to 0, which no start address is
    // below: an unchecked guard would let this walk underflow.
    test::ScopedPanicThrow guard;
    const VectorAccessUnit unit(paperMatchedExample());
    const std::int64_t s62 = -(std::int64_t{1} << 62);
    EXPECT_THROW(unit.plan(100, s62, 5), std::runtime_error);
    EXPECT_THROW(unit.access(100, s62, 5), std::runtime_error);

    // The guard also runs before a certified access is claimed
    // from its length: |S| = 2^62 + 1 is odd (x = 0, in the
    // window), V = L certifies, and 127 * |S| wraps below a1.
    const std::int64_t odd = -((std::int64_t{1} << 62) + 1);
    const Addr a1 = ~Addr{0};
    ASSERT_TRUE(unit.certifies(Stride((Addr{1} << 62) + 1), 128));
    EXPECT_THROW(unit.plan(a1, odd, 128), std::runtime_error);
    BackendCache cache;
    TierCounters tiers;
    EXPECT_THROW(unit.access(a1, odd, 128, nullptr, &cache,
                             TierPolicy::TheoryFirst, &tiers,
                             ResultDetail::Summary),
                 std::runtime_error);
    EXPECT_EQ(tiers.claimed + tiers.fallback, 0u);
}

TEST(SignedStride, RationaleMentionsMirroring)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto p = unit.plan(10000, std::int64_t{-12}, 128);
    EXPECT_NE(p.rationale.find("descending"), std::string::npos);
}

} // namespace
} // namespace cfva
