/**
 * @file
 * Tests for the periodic steady-state fast path, whose one home is
 * the analytic tier's ConflictSolver (theory/conflict_solver.h):
 * differential bit-identity of ConflictSolver::solve against both
 * stepped engines, outcome-memo rank canonicalization through the
 * solver, and the arity-templated module event heap.
 *
 * The contract under test is absolute: every stream the solver
 * claims must carry exactly the AccessResult both stepped engines
 * produce — every delivery record with all five timestamps, every
 * stall, every aggregate — on every mapping kind, with the engines
 * premapping the stream themselves (bit-sliced where the mapping is
 * linear) and handed a plain moduleOf() premap, and at lengths on
 * both sides of the module sequence's period (including L < one
 * period and L = k * period exactly).  The engines have no fast
 * path of their own, so every oracle answer is stepped cycle by
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
#include "memsys/event_multi_port.h"
#include "memsys/event_queue.h"
#include "memsys/multi_port.h"
#include "memsys/steady_state.h"
#include "test_util.h"
#include "theory/conflict_solver.h"

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

/** Runs @p stream through both stepped engines — premapping it
 *  themselves and handed the scalar premap — and through
 *  ConflictSolver::solve, and asserts every answer bit-identical to
 *  the per-cycle oracle.  Returns whether the solver claimed the
 *  stream. */
bool
expectSolverIdentical(const MemConfig &cfg, const ModuleMapping &map,
                      const std::vector<Request> &stream,
                      const std::string &what)
{
    const std::vector<ModuleId> mods = scalarPremap(map, stream);
    PerCycleMultiPort oracle(cfg, map);
    const AccessResult expect = oracle.runSingle(stream);
    EXPECT_EQ(oracle.runSingleMapped(stream, mods.data()), expect)
        << what << " (per-cycle engine, scalar premap)";
    EventDrivenMultiPort event(cfg, map);
    EXPECT_EQ(event.runSingle(stream), expect)
        << what << " (event-driven engine)";
    EXPECT_EQ(event.runSingleMapped(stream, mods.data()), expect)
        << what << " (event-driven engine, scalar premap)";

    ConflictSolver solver;
    AccessResult got;
    if (!solver.solve(cfg, stream, mods.data(), nullptr, got))
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
                claims += expectSolverIdentical(
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
            claims += expectSolverIdentical(
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
    // so the solver refuses them; only agreement is required there.
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
            claims += expectSolverIdentical(
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
        claims += expectSolverIdentical(
            cfg, map, strideStream(a1, stride, len),
            "shape t=" + std::to_string(cfg.t) + " q="
                + std::to_string(cfg.inputBuffers) + " q'="
                + std::to_string(cfg.outputBuffers) + " s="
                + std::to_string(stride) + " a1="
                + std::to_string(a1) + " L=" + std::to_string(len));
    }
    EXPECT_GT(claims, 0u);
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
    ConflictSolver solver;
    PerCycleMultiPort oracle(cfg, map);
    const auto solve = [&](const std::vector<Request> &stream) {
        const std::vector<ModuleId> mods = scalarPremap(map, stream);
        AccessResult r;
        EXPECT_TRUE(
            solver.solve(cfg, stream, mods.data(), nullptr, r));
        return r;
    };

    const auto base0 = strideStream(0, 2, 32);
    const auto base1 = strideStream(1, 2, 32);

    const AccessResult first = solve(base0);
    EXPECT_EQ(solver.stats().memoMisses, 1u);
    EXPECT_EQ(solver.stats().collapseHits, 1u);
    EXPECT_EQ(first, oracle.runSingle(base0));
    EXPECT_GT(first.stallCycles, 0u) << "stream should conflict";

    const AccessResult shifted = solve(base1);
    EXPECT_EQ(solver.stats().memoHits, 1u)
        << "base-shifted rank-isomorphic stream must replay";
    EXPECT_EQ(shifted, oracle.runSingle(base1));

    // Same stream again: the identity relabeling also hits.
    const AccessResult again = solve(base0);
    EXPECT_EQ(solver.stats().memoHits, 2u);
    EXPECT_EQ(solver.stats().collapseHits, 1u);
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
    ConflictSolver solver;
    PerCycleMultiPort oracle(cfg, map);

    for (Addr base : {Addr{0}, Addr{3}}) {
        const auto stream = strideStream(base, 32, 64);
        const std::vector<ModuleId> mods = scalarPremap(map, stream);
        AccessResult r;
        ASSERT_TRUE(
            solver.solve(cfg, stream, mods.data(), nullptr, r))
            << "base " << base;
        EXPECT_EQ(r, oracle.runSingle(stream)) << "base " << base;
        EXPECT_GT(r.stallCycles, 0u) << "stream should conflict";
    }
    EXPECT_EQ(solver.stats().memoHits, 0u)
        << "XOR-reordered module sequence must not hit the memo";
    EXPECT_EQ(solver.stats().memoMisses, 2u);
    EXPECT_EQ(solver.stats().collapseHits, 2u);
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
    const std::vector<ModuleId> mods = scalarPremap(map, stream);

    ConflictSolver solver;
    AccessResult result;
    ASSERT_TRUE(
        solver.solve(cfg, stream, mods.data(), nullptr, result));
    EXPECT_EQ(solver.stats().collapseHits, 1u);
    EXPECT_EQ(solver.stats().memoMisses, 0u);

    PerCycleMultiPort oracle(cfg, map);
    EXPECT_EQ(result, oracle.runSingle(stream));

    // Nothing was stored, so the same stream collapses again
    // instead of replaying.
    AccessResult again;
    ASSERT_TRUE(
        solver.solve(cfg, stream, mods.data(), nullptr, again));
    EXPECT_EQ(solver.stats().collapseHits, 2u);
    EXPECT_EQ(solver.stats().memoHits, 0u);
    EXPECT_EQ(solver.stats().memoMisses, 0u);
    EXPECT_EQ(again, result);
}

TEST(EventHeap, QuaternaryMatchesBinaryPopOrder)
{
    // The pop sequence of a d-ary heap over the strict total order
    // (time, module) is arity-invariant.  Drive a binary and the
    // production 4-ary heap through identical randomized
    // push/pop interleavings and require identical pop streams.
    std::mt19937_64 rng(0x4EA9u);
    for (int round = 0; round < 40; ++round) {
        const ModuleId modules =
            static_cast<ModuleId>(1 + rng() % 64);
        BasicModuleEventHeap<2> h2(modules);
        BasicModuleEventHeap<4> h4(modules);
        for (int op = 0; op < 400; ++op) {
            const bool doPop = !h2.empty() && (rng() % 2 == 0);
            if (doPop) {
                const ModuleEvent a = h2.pop();
                const ModuleEvent b = h4.pop();
                ASSERT_EQ(a.time, b.time);
                ASSERT_EQ(a.module, b.module);
                continue;
            }
            const ModuleId m =
                static_cast<ModuleId>(rng() % modules);
            if (h2.contains(m))
                continue; // one live event per module
            // Few distinct times so module-id tie-breaks are hot.
            const Cycle time = rng() % 8;
            h2.push(m, time);
            h4.push(m, time);
        }
        ASSERT_EQ(h2.size(), h4.size());
        while (!h2.empty()) {
            const ModuleEvent a = h2.pop();
            const ModuleEvent b = h4.pop();
            ASSERT_EQ(a.time, b.time);
            ASSERT_EQ(a.module, b.module);
        }
        EXPECT_TRUE(h4.empty());
    }
}

} // namespace
} // namespace cfva
