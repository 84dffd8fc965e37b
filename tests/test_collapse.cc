/**
 * @file
 * Tests for the periodic steady-state fast path, whose one home is
 * the analytic tier (theory/theory_backend.h): differential
 * bit-identity of TheoryBackend's collapse claims against the
 * stepped per-cycle simulator, the collapse's give-up boundaries,
 * and outcome-memo rank canonicalization through the backend.
 *
 * The contract under test is absolute: every stream the tier
 * claims must carry exactly the AccessResult the simulator
 * produces — every delivery record with all five timestamps, every
 * stall, every aggregate — on every mapping kind, with the
 * simulator premapping the stream itself (bit-sliced where the
 * mapping is linear) and handed a plain moduleOf() premap, and at
 * lengths on both sides of the module sequence's period (including
 * L < one period and L = k * period exactly).  The simulator has no
 * fast path of its own, so every oracle answer is stepped cycle by
 * cycle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "mapping/dynamic.h"
#include "mapping/interleave.h"
#include "mapping/prand.h"
#include "mapping/xor_matched.h"
#include "mapping/xor_sectioned.h"
#include "memsys/multi_port.h"
#include "memsys/steady_state.h"
#include "test_util.h"
#include "theory/theory_backend.h"

namespace cfva {
namespace {

std::vector<Request>
strideStream(Addr a1, std::uint64_t stride, std::size_t length)
{
    std::vector<Request> stream;
    stream.reserve(length);
    for (std::size_t i = 0; i < length; ++i)
        stream.push_back({a1 + i * stride, i});
    return stream;
}

/** The definition every premap is held to: one moduleOf() call
 *  per element. */
std::vector<ModuleId>
scalarPremap(const ModuleMapping &map,
             const std::vector<Request> &stream)
{
    std::vector<ModuleId> mods(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i)
        mods[i] = map.moduleOf(stream[i].addr);
    return mods;
}

/** Runs @p stream through the stepped simulator — premapping it
 *  itself and handed the scalar premap — and through the theory
 *  tier with the conflict-free proof skipped, and asserts every
 *  answer bit-identical to the per-cycle oracle.  Returns whether
 *  the tier claimed the stream. */
bool
expectTierIdentical(const MemConfig &cfg, const ModuleMapping &map,
                    const std::vector<Request> &stream,
                    const std::string &what)
{
    const std::vector<ModuleId> mods = scalarPremap(map, stream);
    PerCycleMultiPort oracle(cfg, map);
    const AccessResult expect = oracle.runSingle(stream);
    EXPECT_EQ(test::simulateMapped(oracle, stream, mods.data()), expect)
        << what << " (scalar premap)";

    TheoryBackend tb(cfg, map);
    const AccessResult got = tb.runSingleHinted(false, stream);
    if (!tb.lastClaimed())
        return false;
    EXPECT_EQ(got.deliveries.size(), expect.deliveries.size())
        << what;
    for (std::size_t i = 0; i < expect.deliveries.size()
                            && i < got.deliveries.size();
         ++i) {
        EXPECT_EQ(got.deliveries[i], expect.deliveries[i])
            << what << ": delivery " << i << " diverges (element "
            << expect.deliveries[i].element << ")";
    }
    EXPECT_EQ(got, expect) << what;
    return true;
}

/** Lengths chosen so the default shapes see streams shorter than
 *  one module-sequence period, exact period multiples, and lengths
 *  crossing a period boundary mid-repetition. */
const std::size_t kLengths[] = {1,  2,  3,  5,   8,   16,
                                31, 32, 33, 100, 128, 257};

TEST(CollapseDifferential, MatchedAllStrideFamilies)
{
    const MemConfig cfg; // m = t = 3
    const XorMatchedMapping map(3, 4);
    unsigned claims = 0;
    for (unsigned x = 0; x <= 7; ++x) {
        for (std::uint64_t sigma : {1, 3, 5}) {
            const std::uint64_t s = sigma << x;
            for (std::size_t len : kLengths) {
                claims += expectTierIdentical(
                    cfg, map, strideStream(3, s, len),
                    "matched s=" + std::to_string(s)
                        + " L=" + std::to_string(len));
            }
        }
    }
    EXPECT_GT(claims, 0u);
}

TEST(CollapseDifferential, SectionedInAndOutOfWindow)
{
    MemConfig cfg;
    const XorSectionedMapping map(3, 4, 9);
    cfg.m = map.moduleBits();
    cfg.t = 3;
    // Families inside the Theorem 3 window and far outside it.
    unsigned claims = 0;
    for (std::uint64_t s : {1, 8, 16, 48, 512, 1536}) {
        for (std::size_t len : kLengths) {
            claims += expectTierIdentical(
                cfg, map, strideStream(1, s, len),
                "sectioned s=" + std::to_string(s)
                    + " L=" + std::to_string(len));
        }
    }
    EXPECT_GT(claims, 0u);
}

TEST(CollapseDifferential, SimpleDynamicAndPseudoRandom)
{
    std::mt19937_64 rng(0xC011A95Eull);
    const LowOrderInterleave simple(4);
    const DynamicFieldMapping dynamic(3, 2);
    const GF2LinearMapping prand =
        makePseudoRandomMapping(3, 24, 7);
    // The pseudo-random mapping's module sequences are aperiodic,
    // so the collapse refuses them; only agreement is required
    // there.
    struct Case
    {
        const ModuleMapping *map;
        const char *name;
        bool periodic;
    };
    for (const Case &c :
         {Case{&simple, "simple", true},
          Case{&dynamic, "dynamic", true},
          Case{&prand, "prand", false}}) {
        MemConfig cfg;
        cfg.m = c.map->moduleBits();
        cfg.t = 3;
        unsigned claims = 0;
        for (int round = 0; round < 24; ++round) {
            const std::uint64_t s = 1 + rng() % 96;
            const Addr a1 = rng() % 1024;
            const std::size_t len =
                kLengths[rng() % std::size(kLengths)];
            claims += expectTierIdentical(
                cfg, *c.map, strideStream(a1, s, len),
                std::string(c.name) + " a1=" + std::to_string(a1)
                    + " s=" + std::to_string(s)
                    + " L=" + std::to_string(len));
        }
        if (c.periodic) {
            EXPECT_GT(claims, 0u) << c.name;
        }
    }
}

TEST(CollapseDifferential, RandomizedShapesAndBuffers)
{
    std::mt19937_64 rng(0x5EEDC0DEull);
    unsigned claims = 0;
    for (int round = 0; round < 48; ++round) {
        MemConfig cfg;
        cfg.t = 1 + rng() % 3;
        cfg.m = cfg.t; // matched mapping wants m = t
        cfg.inputBuffers = 1 + rng() % 2;
        cfg.outputBuffers = 1 + rng() % 2;
        const unsigned s = cfg.t + 1 + rng() % 3;
        const XorMatchedMapping map(cfg.t, s);
        const std::uint64_t stride = 1 + rng() % 64;
        const Addr a1 = rng() % 4096;
        const std::size_t len =
            kLengths[rng() % std::size(kLengths)];
        claims += expectTierIdentical(
            cfg, map, strideStream(a1, stride, len),
            "shape t=" + std::to_string(cfg.t) + " q="
                + std::to_string(cfg.inputBuffers) + " q'="
                + std::to_string(cfg.outputBuffers) + " s="
                + std::to_string(stride) + " a1="
                + std::to_string(a1) + " L=" + std::to_string(len));
    }
    EXPECT_GT(claims, 0u);
}

/** A p-long block cycling through modules 0..3, except that its
 *  first entry repeats module 1: the repeated block's smallest
 *  period is exactly p. */
std::vector<ModuleId>
markedBlock(std::size_t p)
{
    std::vector<ModuleId> block(p);
    for (std::size_t j = 0; j < p; ++j)
        block[j] = static_cast<ModuleId>(j % 4);
    block[0] = 1;
    return block;
}

TEST(CollapseBoundaries, GiveUpRulesKeepTheirRecordedDecisions)
{
    // Synthetic module sequences on both sides of each rule the
    // collapse gives up by, laid out on a low-order interleave so
    // the premap reproduces them.  The claim decision and the
    // stepped prefix cycles are the values the stand-alone collapser
    // produced before it drove the simulator's loop; a moved
    // snapshot point would change them.
    constexpr std::size_t kP = SteadyStateCollapser::kMaxPeriod;
    constexpr std::size_t kLen = OutcomeMemo::kMaxLen;
    struct Case
    {
        const char *name;
        unsigned m, t, q, qOut;
        std::vector<ModuleId> block; //!< repeated to `length`
        std::size_t length;
        bool claimed;
        std::uint64_t prefixCycles;
        std::uint64_t memoMisses;
    };
    const Case cases[] = {
        {"(L-1)/p = 1", 2, 1, 1, 1, {0, 1, 2}, 6, false, 0, 1},
        {"(L-1)/p = 2", 2, 1, 1, 1, {0, 1, 2}, 7, true, 10, 1},
        {"p = kMaxPeriod", 2, 2, 1, 1, markedBlock(kP), 2 * kP + 1,
         true, 4110, 0},
        {"p = kMaxPeriod + 1", 2, 2, 1, 1, markedBlock(kP + 1),
         2 * (kP + 1) + 1, false, 0, 0},
        // Two modules fed faster than T = 4 drains them: a 100-deep
        // input buffer grows every period, so no snapshot repeats
        // before the budget runs out; a 20-deep one fills and
        // recurs within it.
        {"recurs within the snapshot budget", 1, 2, 20, 1, {0, 1},
         200, true, 251, 1},
        {"exhausts the snapshot budget", 1, 2, 100, 1, {0, 1}, 200,
         false, 0, 1},
        {"L = kMaxLen", 2, 2, 1, 1, {0, 0, 1}, kLen, true, 30, 1},
        {"L = kMaxLen + 1", 2, 2, 1, 1, {0, 0, 1}, kLen + 1, true, 34,
         0},
    };
    // The budget case must give up on the budget, not on reaching
    // the end of the stream first.
    EXPECT_GE(cases[5].length,
              (SteadyStateCollapser::kMaxSnapshots + 2)
                  * cases[5].block.size());

    for (const Case &c : cases) {
        MemConfig cfg;
        cfg.m = c.m;
        cfg.t = c.t;
        cfg.inputBuffers = c.q;
        cfg.outputBuffers = c.qOut;
        const LowOrderInterleave map(c.m);
        std::vector<ModuleId> mods(c.length);
        std::vector<Request> stream(c.length);
        for (std::size_t i = 0; i < c.length; ++i) {
            mods[i] = c.block[i % c.block.size()];
            stream[i] = {(Addr{i} << c.m) | mods[i], i};
        }

        TheoryBackend tb(cfg, map);
        const AccessResult got = tb.runSingleHinted(false, stream);
        EXPECT_EQ(tb.lastClaimed(), c.claimed) << c.name;
        const FastPathStats &fast = tb.fastPathStats();
        EXPECT_EQ(fast.collapseHits, c.claimed ? 1u : 0u) << c.name;
        EXPECT_EQ(fast.collapsePrefixCycles, c.prefixCycles) << c.name;
        EXPECT_EQ(fast.memoMisses, c.memoMisses) << c.name;
        PerCycleMultiPort oracle(cfg, map);
        EXPECT_EQ(got, test::simulateMapped(oracle, stream, mods.data()))
            << c.name;
    }
}

TEST(OutcomeMemo, BaseShiftedOrderIsomorphicStreamHits)
{
    // DynamicFieldMapping(m=2, p=0) maps addr -> addr & 3.  Stride
    // 2 from base 0 visits modules 0,2,0,2,...; from base 1 it
    // visits 1,3,1,3,... — the same sequence up to the strictly
    // increasing relabeling {0->1, 2->3}, so the second access must
    // replay the first one's memoized outcome.  T = 4 over two
    // distinct modules keeps the stream conflicted (the interesting
    // case: the collapse actually ran, not the trivial path).
    const DynamicFieldMapping map(2, 0);
    MemConfig cfg;
    cfg.m = 2;
    cfg.t = 2;
    TheoryBackend tb(cfg, map);
    PerCycleMultiPort oracle(cfg, map);
    const FastPathStats &stats = tb.fastPathStats();
    const auto solve = [&](const std::vector<Request> &stream) {
        const AccessResult r = tb.runSingleHinted(false, stream);
        EXPECT_TRUE(tb.lastClaimed());
        return r;
    };

    const auto base0 = strideStream(0, 2, 32);
    const auto base1 = strideStream(1, 2, 32);

    const AccessResult first = solve(base0);
    EXPECT_EQ(stats.memoMisses, 1u);
    EXPECT_EQ(stats.collapseHits, 1u);
    EXPECT_EQ(first, oracle.runSingle(base0));
    EXPECT_GT(first.stallCycles, 0u) << "stream should conflict";

    const AccessResult shifted = solve(base1);
    EXPECT_EQ(stats.memoHits, 1u)
        << "base-shifted rank-isomorphic stream must replay";
    EXPECT_EQ(shifted, oracle.runSingle(base1));

    // Same stream again: the identity relabeling also hits.
    const AccessResult again = solve(base0);
    EXPECT_EQ(stats.memoHits, 2u);
    EXPECT_EQ(stats.collapseHits, 1u);
    EXPECT_EQ(again, first);
}

TEST(OutcomeMemo, XorBaseShiftReordersModulesAndMisses)
{
    // On an XOR mapping a base shift permutes the module sequence
    // non-monotonically — stride 32 visits 0,2,4,6,... from base 0
    // but 3,1,7,5,... from base 3 — so the relabeling is not
    // order-preserving and the memo must NOT serve the shifted
    // stream from the cache: the collapse re-proves it (checked
    // against the oracle).
    const XorMatchedMapping map(3, 4);
    const MemConfig cfg;
    TheoryBackend tb(cfg, map);
    PerCycleMultiPort oracle(cfg, map);

    for (Addr base : {Addr{0}, Addr{3}}) {
        const auto stream = strideStream(base, 32, 64);
        const AccessResult r = tb.runSingleHinted(false, stream);
        ASSERT_TRUE(tb.lastClaimed()) << "base " << base;
        EXPECT_EQ(r, oracle.runSingle(stream)) << "base " << base;
        EXPECT_GT(r.stallCycles, 0u) << "stream should conflict";
    }
    EXPECT_EQ(tb.fastPathStats().memoHits, 0u)
        << "XOR-reordered module sequence must not hit the memo";
    EXPECT_EQ(tb.fastPathStats().memoMisses, 2u);
    EXPECT_EQ(tb.fastPathStats().collapseHits, 2u);
}

TEST(OutcomeMemo, OversizeStreamsBypassTheMemo)
{
    // Streams longer than kMaxLen skip the memo (lookup and
    // store) but may still collapse.
    const LowOrderInterleave map(2);
    MemConfig cfg;
    cfg.m = 2;
    cfg.t = 3;
    const auto stream =
        strideStream(0, 1, OutcomeMemo::kMaxLen + 64);

    TheoryBackend tb(cfg, map);
    const FastPathStats &stats = tb.fastPathStats();
    const AccessResult result = tb.runSingleHinted(false, stream);
    ASSERT_TRUE(tb.lastClaimed());
    EXPECT_EQ(stats.collapseHits, 1u);
    EXPECT_EQ(stats.memoMisses, 0u);

    PerCycleMultiPort oracle(cfg, map);
    EXPECT_EQ(result, oracle.runSingle(stream));

    // Nothing was stored, so the same stream collapses again
    // instead of replaying.
    const AccessResult again = tb.runSingleHinted(false, stream);
    ASSERT_TRUE(tb.lastClaimed());
    EXPECT_EQ(stats.collapseHits, 2u);
    EXPECT_EQ(stats.memoHits, 0u);
    EXPECT_EQ(stats.memoMisses, 0u);
    EXPECT_EQ(again, result);
}

} // namespace
} // namespace cfva
