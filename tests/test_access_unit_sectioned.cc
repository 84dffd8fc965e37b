/**
 * @file
 * Deeper VectorAccessUnit tests on the sectioned (Eq. 2) system:
 * short vectors, chunked lengths, any-length families, and the
 * non-fused-window configuration.
 */

#include <gtest/gtest.h>

#include "core/access_unit.h"
#include "memsys/multi_port.h"
#include "test_util.h"
#include "theory/theory.h"

namespace cfva {
namespace {

TEST(SectionedUnit, ShortVectorUsesRightWindowSide)
{
    const VectorAccessUnit unit(paperSectionedExample());

    // x = 2 <= s: Lemma 2 head with period 2^{s+t-x} = 32.
    const auto low = unit.plan(6, Stride(12), 100);
    EXPECT_EQ(low.policy, AccessPolicy::SplitShort);
    const auto r_low = unit.execute(low);
    EXPECT_EQ(r_low.deliveries.size(), 100u);

    // x = 7 > s: Lemma 4 head with period 2^{y+t-x} = 32.
    const auto high = unit.plan(6, Stride::fromFamily(3, 7), 100);
    EXPECT_EQ(high.policy, AccessPolicy::SplitShort);
    const auto r_high = unit.execute(high);
    EXPECT_EQ(r_high.deliveries.size(), 100u);

    // Both beat pure in-order issue.
    for (const auto *plan : {&low, &high}) {
        const auto in_order = simulateAccess(
            unit.memConfig(), unit.mapping(),
            canonicalOrder(plan->a1, plan->stride, plan->length));
        const auto r = unit.execute(*plan);
        EXPECT_LE(r.latency, in_order.latency);
    }
}

TEST(SectionedUnit, AnyLengthFamiliesAreInOrder)
{
    // x = s and x = y are conflict free in order at ANY length
    // (Sec. 5H); the planner must exploit that instead of
    // splitting.
    const VectorAccessUnit unit(paperSectionedExample());
    for (unsigned x : {4u, 9u}) { // s = 4, y = 9
        for (std::uint64_t len : {7ull, 97ull, 128ull, 200ull}) {
            const auto plan =
                unit.plan(11, Stride::fromFamily(3, x), len);
            EXPECT_EQ(plan.policy, AccessPolicy::InOrder)
                << "x=" << x << " len=" << len;
            EXPECT_TRUE(plan.expectConflictFree);
            const auto r = unit.execute(plan);
            EXPECT_TRUE(r.conflictFree);
            EXPECT_EQ(r.latency, theory::minimumLatency(len, 8));
        }
    }
}

TEST(SectionedUnit, ChunkedMultipleOfL)
{
    const VectorAccessUnit unit(paperSectionedExample());
    const auto plan = unit.plan(0, Stride(12), 384); // 3 * L
    EXPECT_EQ(plan.policy, AccessPolicy::ChunkedByL);
    const auto r = unit.execute(plan);
    EXPECT_EQ(r.deliveries.size(), 384u);
    // Each chunk conflict free; at most T-1 bubble per seam.
    EXPECT_LE(r.latency, 384u + 8u + 1u + 2u * 7u);
}

TEST(SectionedUnit, NonFusedWindowGapFallsBack)
{
    // y large enough to leave a gap between [s-N, s] and [y-R, y]:
    // families in the gap are planned in order and conflict.
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::Sectioned;
    cfg.t = 2;
    cfg.lambda = 6;
    cfg.sOverride = 3;
    cfg.yOverride = 9; // y - R = 5 > s + 1 = 4: gap at x = 4
    const VectorAccessUnit unit(cfg);

    EXPECT_TRUE(unit.inWindow(Stride::fromFamily(1, 3)));
    EXPECT_FALSE(unit.inWindow(Stride::fromFamily(1, 4)));
    EXPECT_TRUE(unit.inWindow(Stride::fromFamily(1, 5)));

    const auto gap_plan = unit.plan(0, Stride(16), 64); // x = 4
    EXPECT_FALSE(gap_plan.expectConflictFree);

    // In-window families still work on either side of the gap.
    for (unsigned x : {0u, 3u, 5u, 9u}) {
        const auto r = unit.access(7, Stride::fromFamily(3, x), 64);
        EXPECT_TRUE(r.conflictFree) << "x=" << x;
    }
}

TEST(SectionedUnit, WindowAccessorsConsistent)
{
    const VectorAccessUnit unit(paperSectionedExample());
    for (unsigned x = 0; x <= 12; ++x) {
        EXPECT_EQ(unit.inWindow(Stride::fromFamily(1, x)),
                  unit.window().contains(x))
            << "fused window must agree with inWindow, x=" << x;
    }
}

} // namespace
} // namespace cfva
