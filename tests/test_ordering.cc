/**
 * @file
 * Tests for the request orderings, pinned to the paper's worked
 * examples (Sec. 3.1 and Sec. 4.1/4.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "access/ordering.h"
#include "mapping/analysis.h"
#include "memsys/multi_port.h"
#include "test_util.h"

namespace cfva {
namespace {

TEST(CanonicalOrder, AddressesAndElements)
{
    const auto stream = canonicalOrder(16, Stride(12), 8);
    ASSERT_EQ(stream.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(stream[i].element, i);
        EXPECT_EQ(stream[i].addr, 16 + 12 * i);
    }
}

TEST(SubsequencePlan, Sec3Example)
{
    // Stride 12 (x=2, sigma=3), t=3, w=s=3, L=64.
    const Stride s(12);
    ASSERT_TRUE(subsequencePlanExists(3, 3, s, 64));
    const auto plan = makeSubsequencePlan(3, 3, s, 64);
    EXPECT_EQ(plan.periodElems, 16u);  // P_x = 2^{3+3-2}
    EXPECT_EQ(plan.periods, 4u);
    EXPECT_EQ(plan.subseqPerPeriod, 2u);
    EXPECT_EQ(plan.elemsPerSubseq, 8u);
    EXPECT_EQ(plan.innerIncrement, 3u << 3);  // sigma * 2^s = 24
    EXPECT_EQ(plan.subseqIncrement, 12u);     // sigma * 2^x = S
    EXPECT_EQ(plan.elementStep, 2u);
    EXPECT_EQ(plan.subsequences(), 8u);
}

TEST(SubsequencePlan, ExistenceRules)
{
    // x > w: no plan.
    EXPECT_FALSE(subsequencePlanExists(3, 3, Stride(16), 64));
    // L not a multiple of the period: no plan.
    EXPECT_FALSE(subsequencePlanExists(3, 3, Stride(12), 24));
    EXPECT_FALSE(subsequencePlanExists(3, 3, Stride(12), 8));
    // Exactly one period is fine.
    EXPECT_TRUE(subsequencePlanExists(3, 3, Stride(12), 16));

    test::ScopedPanicThrow guard;
    EXPECT_THROW(makeSubsequencePlan(3, 3, Stride(16), 64),
                 std::runtime_error);
}

TEST(SubsequenceOrder, Sec3ExampleElementsAndModules)
{
    // Paper: first period gives subsequences with vector elements
    // (0,2,4,6,8,10,12,14) and (1,3,5,7,9,11,13,15), located in
    // modules (2,5,0,3,6,1,4,7) and (7,2,5,0,3,6,1,4).
    const XorMatchedMapping map(3, 3);
    const auto plan = makeSubsequencePlan(3, 3, Stride(12), 64);
    const auto stream = subsequenceOrder(16, plan);
    ASSERT_EQ(stream.size(), 64u);

    const std::uint64_t expect_elems[16] = {0, 2, 4, 6, 8, 10, 12, 14,
                                            1, 3, 5, 7, 9, 11, 13, 15};
    const ModuleId expect_mods[16] = {2, 5, 0, 3, 6, 1, 4, 7,
                                      7, 2, 5, 0, 3, 6, 1, 4};
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(stream[i].element, expect_elems[i]) << "slot " << i;
        EXPECT_EQ(map.moduleOf(stream[i].addr), expect_mods[i])
            << "slot " << i;
    }

    // Second period repeats the element pattern offset by 16.
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(stream[16 + i].element, expect_elems[i] + 16);
}

TEST(SubsequenceOrder, IsPermutationWithConsistentAddresses)
{
    const auto plan = makeSubsequencePlan(3, 4, Stride(12), 128);
    const auto stream = subsequenceOrder(37, plan);
    std::set<std::uint64_t> elems;
    for (const auto &req : stream) {
        EXPECT_TRUE(elems.insert(req.element).second);
        EXPECT_EQ(req.addr, 37 + 12 * req.element);
    }
    EXPECT_EQ(elems.size(), 128u);
    EXPECT_EQ(*elems.rbegin(), 127u);
}

TEST(SubsequenceOrder, EachSubsequenceConflictFree)
{
    // Theorem 2: each subsequence alone is conflict free.
    const XorMatchedMapping map(3, 3);
    const auto plan = makeSubsequencePlan(3, 3, Stride(12), 64);
    const auto stream = subsequenceOrder(16, plan);
    for (std::uint64_t sub = 0; sub < plan.subsequences(); ++sub) {
        std::vector<Addr> addrs;
        for (std::uint64_t i = 0; i < plan.elemsPerSubseq; ++i)
            addrs.push_back(stream[sub * 8 + i].addr);
        EXPECT_TRUE(
            isConflictFree(temporalDistribution(map, addrs), 8))
            << "subsequence " << sub;
    }
    // ...but the whole stream is not (the paper's motivation for
    // the second reordering): subsequence seams conflict.
    std::vector<Addr> all;
    for (const auto &req : stream)
        all.push_back(req.addr);
    EXPECT_FALSE(isConflictFree(temporalDistribution(map, all), 8));
}

TEST(SubsequenceOrder, EqualsCanonicalForFamilyS)
{
    // x = s degenerates to one subsequence per period in canonical
    // order.
    const auto plan = makeSubsequencePlan(3, 3, Stride(8), 64);
    const auto stream = subsequenceOrder(5, plan);
    const auto canon = canonicalOrder(5, Stride(8), 64);
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(stream[i].element, canon[i].element);
        EXPECT_EQ(stream[i].addr, canon[i].addr);
    }
}

TEST(ConflictFreeOrder, Sec3ExampleWholeVectorConflictFree)
{
    const XorMatchedMapping map(3, 3);
    const auto plan = makeSubsequencePlan(3, 3, Stride(12), 64);
    const auto stream = conflictFreeOrder(16, plan, map);
    ASSERT_EQ(stream.size(), 64u);

    std::vector<Addr> addrs;
    for (const auto &req : stream)
        addrs.push_back(req.addr);
    EXPECT_TRUE(isConflictFree(temporalDistribution(map, addrs), 8));

    // Every subsequence now shows the first one's module order
    // (2,5,0,3,6,1,4,7).
    const ModuleId first_order[8] = {2, 5, 0, 3, 6, 1, 4, 7};
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_EQ(map.moduleOf(addrs[i]), first_order[i % 8])
            << "slot " << i;

    // Still a permutation with consistent addresses.
    std::set<std::uint64_t> elems;
    for (const auto &req : stream) {
        EXPECT_TRUE(elems.insert(req.element).second);
        EXPECT_EQ(req.addr, 16 + 12 * req.element);
    }
}

TEST(ConflictFreeOrder, SimulatedLatencyIsMinimum)
{
    const MemConfig cfg{3, 3, 1, 1};
    const XorMatchedMapping map(3, 3);
    const auto plan = makeSubsequencePlan(3, 3, Stride(12), 64);
    const auto stream = conflictFreeOrder(16, plan, map);
    const auto result = simulateAccess(cfg, map, stream);
    EXPECT_TRUE(result.conflictFree);
    EXPECT_EQ(result.latency, 64u + 8u + 1u);
}

TEST(ConflictFreeOrder, MismatchedPlanRejected)
{
    test::ScopedPanicThrow guard;
    const XorMatchedMapping map(3, 3);
    const auto plan = makeSubsequencePlan(3, 4, Stride(12), 128);
    EXPECT_THROW(conflictFreeOrder(16, plan, map),
                 std::runtime_error);
}

TEST(ConflictFreeOrderSectioned, Sec42SupermoduleCase)
{
    // Figure 7 mapping, x = 0 <= s: supermodule keys.
    const XorSectionedMapping map(2, 3, 7);
    const Stride s(3);
    const auto plan = makeSubsequencePlan(2, 3, s, 32);
    const auto stream = conflictFreeOrder(6, plan, map);

    std::vector<Addr> addrs;
    for (const auto &req : stream)
        addrs.push_back(req.addr);
    EXPECT_TRUE(isConflictFree(temporalDistribution(map, addrs), 4));

    const MemConfig cfg{4, 2, 1, 1};
    const auto result = simulateAccess(cfg, map, stream);
    EXPECT_TRUE(result.conflictFree);
    EXPECT_EQ(result.latency, 32u + 4u + 1u);
}

TEST(ConflictFreeOrderSectioned, Sec42SectionCase)
{
    // The Sec. 4.1 example that motivates the reorder: x=6, sigma=3,
    // A1=0.  In subsequence order the modules are (0,12,8,4) then
    // (4,0,12,8) — conflicting at the seam; the section reordering
    // fixes it.
    const XorSectionedMapping map(2, 3, 7);
    const Stride s = Stride::fromFamily(3, 6);
    const auto plan = makeSubsequencePlan(2, 7, s, 32);

    const auto plain = subsequenceOrder(0, plan);
    std::vector<Addr> plain_addrs;
    for (const auto &req : plain)
        plain_addrs.push_back(req.addr);
    EXPECT_FALSE(
        isConflictFree(temporalDistribution(map, plain_addrs), 4));

    const auto stream = conflictFreeOrder(0, plan, map);
    std::vector<Addr> addrs;
    for (const auto &req : stream)
        addrs.push_back(req.addr);
    EXPECT_TRUE(isConflictFree(temporalDistribution(map, addrs), 4));

    const MemConfig cfg{4, 2, 1, 1};
    const auto result = simulateAccess(cfg, map, stream);
    EXPECT_TRUE(result.conflictFree);
}

TEST(ConflictFreeOrderSectioned, WrongWRejected)
{
    test::ScopedPanicThrow guard;
    const XorSectionedMapping map(2, 3, 7);
    // x = 0 must use w = s; a w = y plan is rejected.
    const auto plan = makeSubsequencePlan(2, 7, Stride(1), 512);
    EXPECT_THROW(conflictFreeOrder(0, plan, map), std::runtime_error);
}

} // namespace
} // namespace cfva
