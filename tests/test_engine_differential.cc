/**
 * @file
 * Differential testing of the per-cycle simulator at P = 1, the
 * paper's single-port memory: its single-port entry points against
 * each other, and the analytic tier against it.
 *
 * The contract (memsys/multi_port.h): for every request stream on
 * every memory shape, each single-port entry point of
 * PerCycleMultiPort (runSingle, runSingleMapped, run({stream}))
 * returns a bit-identical AccessResult — every delivery record with
 * all five timestamps, every stall, every aggregate — with or
 * without a DeliveryArena, and every record obeys the timing
 * contract of memsys/request.h.  Two layers of evidence:
 *
 * 1. Raw-stream properties: randomized and adversarial request
 *    streams (single-module pileups, clustered addresses, permuted
 *    orders, tiny buffers) driven through every entry point.
 * 2. A randomized ScenarioGrid of > 1000 planned accesses across
 *    every mapping kind, swept under the audit tier (theory tier
 *    vs the per-cycle oracle on every scenario), and planned
 *    accesses whose full theory-tier AccessResults must equal the
 *    simulated ones.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/access_unit.h"
#include "mapping/interleave.h"
#include "mapping/xor_matched.h"
#include "memsys/multi_port.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "test_util.h"

namespace cfva {
namespace {

/** Asserts @p got bit-identical to @p oracle, naming the first
 *  diverging delivery. */
void
expectSameResult(const AccessResult &got, const AccessResult &oracle,
                 const std::string &what)
{
    ASSERT_EQ(got.deliveries.size(), oracle.deliveries.size())
        << what;
    for (std::size_t i = 0; i < oracle.deliveries.size(); ++i) {
        ASSERT_EQ(got.deliveries[i], oracle.deliveries[i])
            << what << ": delivery " << i << " diverges (element "
            << oracle.deliveries[i].element << ")";
    }
    EXPECT_EQ(got, oracle) << what;
}

/**
 * Runs @p stream through every single-port entry point of the
 * per-cycle simulator — runSingle(), runSingleMapped() over a
 * scalar premap, and run({stream}), each without and with a
 * DeliveryArena — and asserts every answer bit-identical to a fresh
 * runSingle() and true to the timing contract.
 */
void
expectEntryPointsAgree(const MemConfig &cfg, const ModuleMapping &map,
                       const std::vector<Request> &stream,
                       const char *what)
{
    std::vector<ModuleId> mods(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i)
        mods[i] = map.moduleOf(stream[i].addr);

    PerCycleMultiPort backend(cfg, map);
    const AccessResult oracle = simulateAccess(cfg, map, stream);
    test::expectTimingContract(cfg, oracle, stream, 0, what);
    const Cycle makespan =
        oracle.deliveries.empty() ? 0 : oracle.lastDelivery + 1;

    DeliveryArena arena;
    for (DeliveryArena *a :
         {static_cast<DeliveryArena *>(nullptr), &arena}) {
        const std::string where =
            std::string(what) + (a ? " (arena)" : "");
        AccessResult single = backend.runSingle(stream, a);
        expectSameResult(single, oracle, where + " runSingle");
        AccessResult mapped =
            backend.runSingleMapped(stream, mods.data(), a);
        expectSameResult(mapped, oracle, where + " runSingleMapped");
        MultiPortResult wrapped = backend.run({stream}, a);
        ASSERT_EQ(wrapped.ports.size(), 1u) << where;
        expectSameResult(wrapped.ports[0], oracle,
                         where + " run({stream})");
        EXPECT_EQ(wrapped.makespan, makespan) << where;
        if (a) {
            // Recycle the buffers so later runs draw stale ones.
            a->release(std::move(single.deliveries));
            a->release(std::move(mapped.deliveries));
            a->release(std::move(wrapped.ports[0].deliveries));
        }
    }
}

std::vector<Request>
sequentialStream(const std::vector<Addr> &addrs)
{
    std::vector<Request> stream;
    stream.reserve(addrs.size());
    for (std::size_t i = 0; i < addrs.size(); ++i)
        stream.push_back({addrs[i], i});
    return stream;
}

TEST(EngineDifferential, EmptyStream)
{
    const MemConfig cfg;
    const XorMatchedMapping map(3, 4);
    expectEntryPointsAgree(cfg, map, {}, "empty stream");
}

TEST(EngineDifferential, SingleElement)
{
    const MemConfig cfg;
    const XorMatchedMapping map(3, 4);
    expectEntryPointsAgree(cfg, map, sequentialStream({13}),
                       "one element");
}

TEST(EngineDifferential, SingleModulePileup)
{
    // Every request lands on module 0: the maximally conflicting
    // stream, where every element stalls ~T cycles and the
    // blocked-retire path is hit constantly.
    for (unsigned q : {1u, 2u, 4u}) {
        for (unsigned qp : {1u, 2u}) {
            MemConfig cfg;
            cfg.m = 3;
            cfg.t = 3;
            cfg.inputBuffers = q;
            cfg.outputBuffers = qp;
            const LowOrderInterleave map(3);
            std::vector<Addr> addrs(64);
            for (std::size_t i = 0; i < addrs.size(); ++i)
                addrs[i] = i * 8; // always module 0
            expectEntryPointsAgree(cfg, map, sequentialStream(addrs),
                               "single-module pileup");
        }
    }
}

TEST(EngineDifferential, TwoModulePingPong)
{
    MemConfig cfg;
    cfg.m = 2;
    cfg.t = 3; // T = 8 >> M = 4: persistent back-pressure
    const LowOrderInterleave map(2);
    std::vector<Addr> addrs;
    for (std::size_t i = 0; i < 48; ++i)
        addrs.push_back((i % 2) * 1 + (i / 2) * 4);
    expectEntryPointsAgree(cfg, map, sequentialStream(addrs),
                       "two-module ping-pong");
}

TEST(EngineDifferential, RandomStreamsAllShapes)
{
    Rng rng(0xD1FFe9ull);
    unsigned checked = 0;
    for (unsigned m : {1u, 2u, 3u, 4u}) {
        for (unsigned t : {1u, 2u, 3u}) {
            for (unsigned q : {1u, 2u}) {
                MemConfig cfg;
                cfg.m = m;
                cfg.t = t;
                cfg.inputBuffers = q;
                cfg.outputBuffers = 1 + (checked % 2);
                const LowOrderInterleave map(m);
                for (unsigned rep = 0; rep < 8; ++rep) {
                    // Clustered addresses: small ranges produce
                    // heavy conflicts, large ranges light ones.
                    const Addr range =
                        Addr{1} << (2 + rng.below(8));
                    const std::size_t len = 1 + rng.below(96);
                    std::vector<Addr> addrs(len);
                    for (auto &a : addrs)
                        a = rng.below(range);
                    expectEntryPointsAgree(
                        cfg, map, sequentialStream(addrs),
                        "random stream");
                    ++checked;
                }
            }
        }
    }
    EXPECT_GE(checked, 150u);
}

TEST(EngineDifferential, PermutedElementOrder)
{
    // Out-of-order issue with non-identity element numbering, as
    // the conflict-free planner produces.
    Rng rng(0x0BDE12ull);
    const MemConfig cfg;
    const XorMatchedMapping map(3, 4);
    for (unsigned rep = 0; rep < 16; ++rep) {
        std::vector<Request> stream;
        const std::size_t len = 32 + rng.below(64);
        for (std::size_t i = 0; i < len; ++i)
            stream.push_back({rng.below(1 << 10), i});
        // Fisher-Yates on the issue order; element ids ride along.
        for (std::size_t i = len - 1; i > 0; --i) {
            const std::size_t j = rng.below(i + 1);
            std::swap(stream[i], stream[j]);
        }
        expectEntryPointsAgree(cfg, map, stream, "permuted order");
    }
}

/**
 * The randomized grid: every mapping kind x strides x lengths x
 * starts, > 1000 scenarios.
 */
sim::ScenarioGrid
randomizedGrid(std::uint64_t seed)
{
    Rng rng(seed);
    sim::ScenarioGrid grid;

    auto push = [&](MemoryKind kind, unsigned t, unsigned lambda) {
        VectorUnitConfig cfg;
        cfg.kind = kind;
        cfg.t = t;
        cfg.lambda = lambda;
        cfg.inputBuffers = 1 + static_cast<unsigned>(rng.below(3));
        cfg.outputBuffers = 1 + static_cast<unsigned>(rng.below(2));
        if (kind == MemoryKind::SimpleUnmatched) {
            // s defaults to lambda - t and Eq. 1 with t -> m needs
            // s >= m, so any m in [t, lambda - t] is valid.
            cfg.mOverride =
                t + static_cast<unsigned>(rng.below(lambda - 2 * t + 1));
        }
        if (kind == MemoryKind::DynamicTuned)
            cfg.dynamicTune = static_cast<unsigned>(rng.below(6));
        if (kind == MemoryKind::PseudoRandom)
            cfg.prandSeed = rng.next();
        grid.mappings.push_back(cfg);
    };

    // Two randomized shapes of each kind.
    for (unsigned rep = 0; rep < 2; ++rep) {
        for (MemoryKind kind :
             {MemoryKind::Matched, MemoryKind::SimpleUnmatched,
              MemoryKind::Sectioned, MemoryKind::DynamicTuned,
              MemoryKind::PseudoRandom}) {
            const unsigned t = 2 + static_cast<unsigned>(rng.below(2));
            const unsigned lambda =
                2 * t + 1 + static_cast<unsigned>(rng.below(3 - rep));
            push(kind, t, lambda);
        }
    }

    // Strides: families 0..7 with random odd multipliers.
    for (unsigned x = 0; x <= 7; ++x)
        for (unsigned k = 0; k < 2; ++k)
            grid.strides.push_back(
                Stride::fromFamily(rng.oddBelow(64), x).value());

    // Lengths: full register, a short vector, and 512 — a whole
    // multiple of every register length on the grid (lambda <= 9),
    // exercising the chunked-by-L planner path.
    grid.lengths = {0, 1 + rng.below(31), 512};

    grid.starts = {0};
    grid.randomStarts = 2;
    grid.seed = rng.next();
    return grid;
}

TEST(EngineDifferential, RandomizedGridOver1000Scenarios)
{
    const sim::ScenarioGrid grid = randomizedGrid(0x5EED5EEDull);
    ASSERT_GE(grid.jobCount(), 1000u)
        << "property budget: the grid must cover >= 1000 scenarios";

    // The audit tier runs every scenario on the theory tier and on
    // the per-cycle oracle and flags any field that differs.
    sim::SweepOptions opts;
    opts.tier = TierPolicy::AuditBoth;
    sim::SweepRunStats stats;
    const sim::SweepReport audited =
        sim::SweepEngine(opts).run(grid, &stats);

    ASSERT_EQ(audited.jobs(), grid.jobCount());
    for (const sim::ScenarioOutcome &o : audited.outcomes) {
        EXPECT_FALSE(o.tierAuditDiverged)
            << "scenario " << o.index << " ("
            << audited.mappingLabels[o.mappingIndex] << " stride "
            << o.stride << " length " << o.length << " a1 " << o.a1
            << ") diverges";
    }
    EXPECT_EQ(stats.tierAuditDivergences, 0u);
}

TEST(EngineDifferential, PlannedAccessesFullResultEquality)
{
    // Beyond the report fields: the complete AccessResult — every
    // delivery timestamp — for planned accesses of each kind, the
    // theory tier's full-detail answer against the simulator's.
    Rng rng(0xACCE55ull);
    const sim::ScenarioGrid grid = randomizedGrid(0xF00D5EEDull);
    unsigned checked = 0;
    for (const auto &mapping : grid.mappings) {
        const VectorAccessUnit unit(mapping);
        for (unsigned rep = 0; rep < 6; ++rep) {
            const Stride stride = Stride::fromFamily(
                rng.oddBelow(32),
                static_cast<unsigned>(rng.below(8)));
            const std::uint64_t length =
                rep < 3 ? mapping.registerLength()
                        : 1 + rng.below(2 * mapping.registerLength());
            const Addr a1 = rng.below(Addr{1} << 20);
            const AccessResult a = unit.access(a1, stride, length);
            const AccessResult b =
                unit.access(a1, stride, length, nullptr, nullptr,
                            TierPolicy::TheoryFirst);
            EXPECT_EQ(b, a)
                << mapping.describe() << " stride " << stride.value()
                << " length " << length << " a1 " << a1;
            ++checked;
        }
    }
    EXPECT_GE(checked, 60u);
}

} // namespace
} // namespace cfva
