/**
 * @file
 * Tests for the VectorAccessUnit policy selection and end-to-end
 * latency behavior on the paper's example configurations.
 */

#include <gtest/gtest.h>

#include "core/access_unit.h"
#include "memsys/multi_port.h"
#include "test_util.h"

namespace cfva {
namespace {

TEST(AccessUnit, MatchedWindowAndPolicies)
{
    const VectorAccessUnit unit(paperMatchedExample());
    EXPECT_EQ(unit.window().lo, 0);
    EXPECT_EQ(unit.window().hi, 4);
    EXPECT_TRUE(unit.inWindow(Stride(1)));
    EXPECT_TRUE(unit.inWindow(Stride(12)));
    EXPECT_TRUE(unit.inWindow(Stride(16)));  // x = 4 = s
    EXPECT_FALSE(unit.inWindow(Stride(32))); // x = 5

    // x = s: in order is already conflict free.
    const auto p_s = unit.plan(10, Stride(16), 128);
    EXPECT_EQ(p_s.policy, AccessPolicy::InOrder);
    EXPECT_TRUE(p_s.expectConflictFree);

    // x < s: conflict-free reordering.
    const auto p_low = unit.plan(10, Stride(12), 128);
    EXPECT_EQ(p_low.policy, AccessPolicy::ConflictFree);
    EXPECT_TRUE(p_low.expectConflictFree);
    EXPECT_FALSE(p_low.rationale.empty());

    // x > s: fallback, not conflict free.
    const auto p_out = unit.plan(10, Stride(32), 128);
    EXPECT_EQ(p_out.policy, AccessPolicy::InOrder);
    EXPECT_FALSE(p_out.expectConflictFree);
}

TEST(AccessUnit, MatchedWholeWindowMinimumLatency)
{
    // Sec. 3.3 example: every family 0..4 at T+L+1 = 137 cycles.
    const VectorAccessUnit unit(paperMatchedExample());
    for (unsigned x = 0; x <= 4; ++x) {
        for (std::uint64_t sigma : {1ull, 3ull}) {
            for (Addr a1 : {0ull, 5ull, 1000ull}) {
                const auto r = unit.access(
                    a1, Stride::fromFamily(sigma, x), 128);
                EXPECT_TRUE(r.conflictFree)
                    << "x=" << x << " sigma=" << sigma;
                EXPECT_EQ(r.latency, 137u);
            }
        }
    }
    // And x = 5 cannot reach it.
    const auto r = unit.access(0, Stride(32), 128);
    EXPECT_FALSE(r.conflictFree);
    EXPECT_GT(r.latency, 137u);
}

TEST(AccessUnit, SectionedWholeWindowMinimumLatency)
{
    // Sec. 4.3 example: families 0..9 at 137 cycles on M = 64.
    const VectorAccessUnit unit(paperSectionedExample());
    EXPECT_EQ(unit.window().lo, 0);
    EXPECT_EQ(unit.window().hi, 9);
    for (unsigned x = 0; x <= 9; ++x) {
        const auto r = unit.access(6, Stride::fromFamily(3, x), 128);
        EXPECT_TRUE(r.conflictFree) << "x=" << x;
        EXPECT_EQ(r.latency, 137u) << "x=" << x;
    }
    const auto r = unit.access(6, Stride::fromFamily(1, 10), 128);
    EXPECT_FALSE(r.conflictFree);
}

TEST(AccessUnit, SimpleUnmatchedCombinedWindow)
{
    // Sec. 4 opening: in-order for [s, s+m-t], out-of-order below.
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::SimpleUnmatched;
    cfg.t = 2;
    cfg.lambda = 8;
    cfg.mOverride = 4;
    cfg.sOverride = 6;
    const VectorAccessUnit unit(cfg);
    EXPECT_EQ(unit.window().lo, 0);
    EXPECT_EQ(unit.window().hi, 8); // s + m - t

    const auto p_in = unit.plan(0, Stride(64), 256); // x = 6 = s
    EXPECT_EQ(p_in.policy, AccessPolicy::InOrder);
    EXPECT_TRUE(p_in.expectConflictFree);

    const auto p_oo = unit.plan(0, Stride(12), 256); // x = 2 < s
    EXPECT_EQ(p_oo.policy, AccessPolicy::ConflictFree);

    for (unsigned x = 0; x <= 8; ++x) {
        const auto r = unit.access(9, Stride::fromFamily(3, x), 256);
        EXPECT_TRUE(r.conflictFree) << "x=" << x;
        EXPECT_EQ(r.latency, 256u + 4u + 1u) << "x=" << x;
    }
}

TEST(AccessUnit, ShortVectorSplit)
{
    const VectorAccessUnit unit(paperMatchedExample());
    // Stride 12 (x=2), V=40: period 2^{4+3-2}=32, head 32 + tail 8.
    const auto p = unit.plan(16, Stride(12), 40);
    EXPECT_EQ(p.policy, AccessPolicy::SplitShort);
    EXPECT_EQ(p.stream.size(), 40u);
    EXPECT_FALSE(p.expectConflictFree); // nonempty tail

    const auto r = unit.execute(p);
    EXPECT_EQ(r.deliveries.size(), 40u);

    // Pure in-order of the same vector is never faster.
    const auto in_order =
        simulateAccess(unit.memConfig(), unit.mapping(),
                       canonicalOrder(16, Stride(12), 40));
    EXPECT_LE(r.latency, in_order.latency);
}

TEST(AccessUnit, ShortVectorExactMultipleIsConflictFree)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto p = unit.plan(16, Stride(12), 64); // 2 periods
    EXPECT_EQ(p.policy, AccessPolicy::SplitShort);
    EXPECT_TRUE(p.expectConflictFree);
    const auto r = unit.execute(p);
    EXPECT_TRUE(r.conflictFree);
    EXPECT_EQ(r.latency, 64u + 8u + 1u);
}

TEST(AccessUnit, ChunkedMultipleOfL)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto p = unit.plan(0, Stride(12), 256); // 2 * L
    EXPECT_EQ(p.policy, AccessPolicy::ChunkedByL);
    EXPECT_EQ(p.stream.size(), 256u);

    const auto r = unit.execute(p);
    EXPECT_EQ(r.deliveries.size(), 256u);
    // Each chunk is conflict free; seams cost at most T-1 each.
    EXPECT_LE(r.latency, 256u + 8u + 1u + 7u);
}

TEST(AccessUnit, ElementsCoveredExactlyOnceAllPolicies)
{
    const VectorAccessUnit unit(paperMatchedExample());
    for (std::uint64_t len : {40ull, 64ull, 128ull, 256ull}) {
        for (std::uint64_t stride : {1ull, 12ull, 16ull, 32ull}) {
            const auto p = unit.plan(7, Stride(stride), len);
            ASSERT_EQ(p.stream.size(), len);
            std::vector<bool> seen(len, false);
            for (const auto &req : p.stream) {
                ASSERT_LT(req.element, len);
                EXPECT_FALSE(seen[req.element]);
                seen[req.element] = true;
                EXPECT_EQ(req.addr, 7 + stride * req.element);
            }
        }
    }
}

/** One unit of every memory kind that (t, lambda) admits. */
std::vector<VectorUnitConfig>
everyKind(unsigned t, unsigned lambda)
{
    std::vector<VectorUnitConfig> cfgs;
    VectorUnitConfig base;
    base.t = t;
    base.lambda = lambda;
    if (lambda >= 2 * t) { // default s = lambda - t >= t
        for (MemoryKind kind : {MemoryKind::Matched,
                                MemoryKind::Sectioned}) {
            VectorUnitConfig c = base;
            c.kind = kind;
            cfgs.push_back(c);
        }
        if (lambda - t >= t + 1) { // s >= m
            VectorUnitConfig c = base;
            c.kind = MemoryKind::SimpleUnmatched;
            c.mOverride = t + 1;
            cfgs.push_back(c);
        }
    }
    VectorUnitConfig dyn = base;
    dyn.kind = MemoryKind::DynamicTuned;
    dyn.dynamicTune = 2;
    cfgs.push_back(dyn);
    VectorUnitConfig prand = base;
    prand.kind = MemoryKind::PseudoRandom;
    cfgs.push_back(prand);
    return cfgs;
}

TEST(AccessUnit, CertifiesIsThePlansCertification)
{
    // One definition: for every policy the planner picks, the
    // plan's certification is the O(1) predicate, for both signs.
    std::size_t cases = 0;
    std::size_t certified = 0;
    for (unsigned t = 1; t <= 3; ++t) {
        for (unsigned lambda = 4; lambda <= 8; ++lambda) {
            for (const VectorUnitConfig &cfg : everyKind(t, lambda)) {
                const VectorAccessUnit unit(cfg);
                const std::uint64_t L = cfg.registerLength();
                for (unsigned x = 0; x <= 11; ++x) {
                    for (std::uint64_t sigma = 1; sigma <= 15;
                         sigma += 2) {
                        const Stride s = Stride::fromFamily(sigma, x);
                        const auto S =
                            static_cast<std::int64_t>(s.value());
                        for (std::uint64_t V :
                             {std::uint64_t{1}, std::uint64_t{2},
                              std::uint64_t{3}, std::uint64_t{5},
                              std::uint64_t{8}, L / 4, L / 2, L - 1,
                              L, L + 1, L + L / 2, 2 * L, 3 * L,
                              4 * L}) {
                            const bool c = unit.certifies(s, V);
                            EXPECT_EQ(c, unit.plan(12345, S, V, {},
                                                   false)
                                             .expectConflictFree)
                                << cfg.describe() << " S=" << S
                                << " V=" << V;
                            EXPECT_EQ(c, unit.plan(Addr{1} << 40, -S,
                                                   V, {}, false)
                                             .expectConflictFree)
                                << cfg.describe() << " S=-" << S
                                << " V=" << V;
                            cases += 2;
                            certified += c ? 2 : 0;
                        }
                    }
                }
            }
        }
    }
    // The grid reaches both answers in bulk.
    EXPECT_GT(cases, 100000u);
    EXPECT_GT(certified, 10000u);
    EXPECT_LT(certified, cases);
}

TEST(AccessUnit, RejectsEmptyAccess)
{
    test::ScopedPanicThrow guard;
    const VectorAccessUnit unit(paperMatchedExample());
    EXPECT_THROW(unit.plan(0, Stride(1), 0), std::runtime_error);
}

TEST(AccessUnit, PolicyNames)
{
    EXPECT_STREQ(to_string(AccessPolicy::InOrder), "in-order");
    EXPECT_STREQ(to_string(AccessPolicy::ConflictFree),
                 "conflict-free");
    EXPECT_STREQ(to_string(AccessPolicy::SplitShort), "split-short");
    EXPECT_STREQ(to_string(AccessPolicy::ChunkedByL), "chunked-by-L");
}

} // namespace
} // namespace cfva
