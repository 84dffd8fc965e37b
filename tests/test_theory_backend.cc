/**
 * @file
 * Tests for the tiered evaluator (src/theory/theory_backend.{h,cc}).
 *
 * The theory tier's whole contract is bit-identity: an access it
 * claims must produce exactly the AccessResult the per-cycle
 * simulator would — latency, stalls, and every delivery timestamp.
 * The randomized audit grid here drives all mapping kinds across
 * strides inside and outside the paper's windows, lengths around
 * the register size, and both port counts, comparing the TheoryFirst
 * tier against pure simulation bit for bit and requiring a nonzero
 * claim rate.  Alongside it: unit tests of the claim/fallback
 * mechanics, sweep-level AuditBoth runs, and property tests pinning
 * the theory identities the fast path leans on.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/access_unit.h"
#include "memsys/backend_cache.h"
#include "sim/sweep_engine.h"
#include "test_util.h"
#include "theory/theory.h"
#include "theory/theory_backend.h"

namespace cfva {
namespace {

VectorUnitConfig
matchedConfig()
{
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::Matched;
    cfg.t = 2;
    cfg.lambda = 6;
    return cfg;
}

/** A fresh TheoryBackend over @p unit's shape and mapping. */
TheoryBackend
theoryOver(const VectorAccessUnit &unit)
{
    return TheoryBackend(unit.memConfig(), unit.mapping());
}

TEST(TheoryBackend, ClaimedStreamIsBitIdenticalToSimulation)
{
    const VectorAccessUnit unit(matchedConfig());
    // Stride 1 is deep inside the Theorem 1 window: the plan is
    // conflict free and the claim must go through.
    const AccessPlan plan = unit.plan(0, Stride(1), 64);
    ASSERT_TRUE(plan.expectConflictFree);

    TheoryBackend tb = theoryOver(unit);
    const AccessResult claimed = tb.runSingle(plan.stream);
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(tb.stats().claimed, 1u);
    EXPECT_EQ(tb.stats().fallback, 0u);

    const AccessResult simulated = tb.fallback().runSingle(plan.stream);
    EXPECT_EQ(claimed, simulated);
    EXPECT_TRUE(claimed.conflictFree);
    EXPECT_EQ(claimed.latency,
              theory::minimumLatency(64,
                                     unit.memConfig().serviceCycles()));
}

TEST(TheoryBackend, ConflictedStreamIsSolvedAnalytically)
{
    const VectorAccessUnit unit(matchedConfig());
    // Family 6 is outside the matched window [0, s=4]: the
    // canonical-order stream conflicts, so the O(L) proof refuses —
    // but the conflict pattern is exactly periodic, and the
    // steady-state solver must close its form and claim it.
    const AccessPlan plan = unit.plan(0, Stride(64), 64);
    ASSERT_FALSE(plan.expectConflictFree);

    TheoryBackend tb = theoryOver(unit);
    const AccessResult viaTier = tb.runSingle(plan.stream);
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(tb.lastReason(), FallbackReason::None);
    EXPECT_EQ(tb.stats().claimed, 1u);
    EXPECT_EQ(tb.stats().fallback, 0u);

    const AccessResult simulated =
        tb.fallback().runSingle(plan.stream);
    EXPECT_EQ(viaTier, simulated);
    EXPECT_FALSE(viaTier.conflictFree);
    EXPECT_GT(viaTier.stallCycles, 0u);
}

TEST(TheoryBackend, HintFalseSkipsTheProofButNotTheSolver)
{
    const VectorAccessUnit unit(matchedConfig());
    const AccessPlan plan = unit.plan(0, Stride(1), 64);
    TheoryBackend tb = theoryOver(unit);

    // The hint gates only the O(L) conflict-free proof; the
    // steady-state solver still runs, and a periodic stream —
    // conflict free or not — is claimed with the bit-identical
    // schedule.
    const AccessResult hinted =
        tb.runSingleHinted(false, plan.stream);
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(tb.stats().claimed, 1u);
    EXPECT_EQ(hinted, tb.fallback().runSingle(plan.stream));
    EXPECT_TRUE(hinted.conflictFree);
}

TEST(TheoryBackend, AperiodicConflictedStreamFallsBack)
{
    VectorUnitConfig cfg = matchedConfig();
    cfg.kind = MemoryKind::PseudoRandom;
    const VectorAccessUnit unit(cfg);
    // A pseudo-random mapping's module sequence has no short
    // period, so neither the proof nor the solver can close a
    // conflicted stream's form: it must simulate, and the taxonomy
    // must say why.
    const AccessPlan plan = unit.plan(0, Stride(3), 64);
    TheoryBackend tb = theoryOver(unit);
    const AccessResult viaTier =
        tb.runSingleHinted(false, plan.stream);
    if (!tb.lastClaimed()) {
        EXPECT_EQ(tb.lastReason(), FallbackReason::Conflicted);
        EXPECT_EQ(tb.stats().fallback, 1u);
    }
    EXPECT_EQ(viaTier, tb.fallback().runSingle(plan.stream));
}

TEST(TheoryBackend, EmptyStreamIsClaimedTrivially)
{
    const VectorAccessUnit unit(matchedConfig());
    TheoryBackend tb = theoryOver(unit);
    const AccessResult empty = tb.runSingle({});
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(empty, tb.fallback().runSingle({}));
    EXPECT_TRUE(empty.conflictFree);
    EXPECT_EQ(empty.latency, 0u);
    EXPECT_TRUE(empty.deliveries.empty());
}

TEST(TheoryBackend, SinglePortRunLiftsLikeTheSimulator)
{
    const VectorAccessUnit unit(matchedConfig());
    const AccessPlan plan = unit.plan(0, Stride(1), 64);
    TheoryBackend tb = theoryOver(unit);

    const MultiPortResult lifted = tb.run({plan.stream});
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(lifted, tb.fallback().run({plan.stream}));
    ASSERT_EQ(lifted.ports.size(), 1u);
    EXPECT_TRUE(lifted.ports[0].conflictFree);
}

TEST(TheoryBackend, MultiPortSharedModulesFallBack)
{
    const VectorAccessUnit unit(matchedConfig());
    const AccessPlan plan = unit.plan(0, Stride(1), 64);
    TheoryBackend tb = theoryOver(unit);

    // Two ports issuing the same stream contend for every module:
    // the schedule is not single-port-decomposable and simulates.
    const std::vector<std::vector<Request>> streams = {plan.stream,
                                                       plan.stream};
    const MultiPortResult viaTier = tb.run(streams);
    EXPECT_FALSE(tb.lastClaimed());
    EXPECT_EQ(tb.lastReason(), FallbackReason::MultiPort);
    EXPECT_EQ(tb.stats().fallback, 1u);
    EXPECT_EQ(viaTier, tb.fallback().run(streams));
}

TEST(TheoryBackend, MultiPortDisjointPortsAreClaimed)
{
    const VectorAccessUnit unit(matchedConfig());
    // Family 6 confines each port to a single module; pick a second
    // base landing on a different module, so the ports are provably
    // disjoint and the claim decomposes into two single-port
    // answers.
    const AccessPlan p0 = unit.plan(0, Stride(64), 32);
    const ModuleId mod0 = unit.mapping().moduleOf(p0.stream[0].addr);
    AccessPlan p1 = unit.plan(0, Stride(64), 32);
    bool found = false;
    for (Addr base = 1; base < 4096 && !found; ++base) {
        p1 = unit.plan(base, Stride(64), 32);
        found = true;
        for (const Request &r : p1.stream) {
            if (unit.mapping().moduleOf(r.addr) == mod0) {
                found = false;
                break;
            }
        }
    }
    ASSERT_TRUE(found) << "no disjoint base below 4096";

    TheoryBackend tb = theoryOver(unit);
    const std::vector<std::vector<Request>> streams = {p0.stream,
                                                       p1.stream};
    const MultiPortResult viaTier = tb.run(streams);
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(tb.lastReason(), FallbackReason::None);
    EXPECT_EQ(tb.stats().claimed, 1u);
    EXPECT_EQ(viaTier, tb.fallback().run(streams));
    ASSERT_EQ(viaTier.ports.size(), 2u);
    for (unsigned p = 0; p < 2; ++p) {
        for (const Delivery &d : viaTier.ports[p].deliveries)
            EXPECT_EQ(d.port, p);
    }
}

TEST(TheoryBackend, CacheKeepsTiersSeparate)
{
    const VectorAccessUnit unit(matchedConfig());
    BackendCache cache;
    MemoryBackend &sim =
        cache.backendFor(unit.memConfig(), unit.mapping());
    TheoryBackend &tb = cache.theoryBackendFor(
        EngineKind::PerCycle, unit.memConfig(), unit.mapping());
    EXPECT_NE(&sim, static_cast<MemoryBackend *>(&tb));
    EXPECT_EQ(cache.size(), 2u);

    // Repeat lookups hit their own entries.
    EXPECT_EQ(&cache.theoryBackendFor(EngineKind::PerCycle,
                                      unit.memConfig(),
                                      unit.mapping()),
              &tb);
    EXPECT_EQ(&cache.backendFor(unit.memConfig(), unit.mapping()),
              &sim);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(TheoryBackend, AccessClaimsCertifiedAccessesWithoutAStream)
{
    // t = 2, lambda = 6: L = 64, s = 4, period 2^{6-x} below s.
    const VectorAccessUnit unit(matchedConfig());
    struct Case
    {
        std::uint64_t stride;
        std::uint64_t length;
        bool certified;
    };
    const Case cases[] = {
        {3, 64, true},    // x = 0: Theorem 1 reordering
        {16, 20, true},   // x = s: in order, any length
        {12, 32, true},   // x = 2: two whole periods (Sec. 5C)
        {3, 40, false},   // no whole period: in-order tail
        {32, 64, false},  // x = 5: outside the window (solver)
        {3, 128, false},  // 2L: register seams
    };
    for (const Case &c : cases) {
        ASSERT_EQ(unit.certifies(Stride(c.stride), c.length),
                  c.certified);
        for (const std::int64_t sign : {1, -1}) {
            const auto stride =
                sign * static_cast<std::int64_t>(c.stride);
            const Addr a1 = sign > 0 ? 5 : Addr{1} << 20;
            for (const ResultDetail detail :
                 {ResultDetail::Summary, ResultDetail::SummaryIfUniform,
                  ResultDetail::Full}) {
                SCOPED_TRACE(testing::Message()
                             << "S=" << stride << " V=" << c.length
                             << " detail=" << static_cast<int>(detail));
                BackendCache viaAccessCache, viaPlanCache;
                DeliveryArena viaAccessArena, viaPlanArena;
                TierCounters viaAccessTiers, viaPlanTiers;
                const AccessResult viaAccess = unit.access(
                    a1, stride, c.length, &viaAccessArena,
                    &viaAccessCache, TierPolicy::TheoryFirst,
                    &viaAccessTiers, detail);
                const AccessPlan plan = unit.plan(a1, stride, c.length);
                const AccessResult viaPlan = unit.execute(
                    plan, &viaPlanArena, &viaPlanCache,
                    TierPolicy::TheoryFirst, &viaPlanTiers, detail);

                // Scalars, and deliveries wherever either has them.
                EXPECT_TRUE(viaAccess == viaPlan);
                EXPECT_EQ(viaAccess.latency, viaPlan.latency);
                EXPECT_EQ(viaAccess.deliveries.size(),
                          viaPlan.deliveries.size());
                EXPECT_EQ(viaAccessTiers, viaPlanTiers);
                const auto theory = [&](BackendCache &cache) {
                    return cache
                        .theoryBackendFor(EngineKind::PerCycle,
                                          unit.memConfig(),
                                          unit.mapping())
                        .stats();
                };
                EXPECT_EQ(theory(viaAccessCache), theory(viaPlanCache));
                EXPECT_EQ(theory(viaAccessCache).claimed
                              + theory(viaAccessCache).fallback,
                          1u);

                const bool streamless =
                    c.certified && detail != ResultDetail::Full;
                // No request buffer for a stream-less claim (and no
                // delivery buffer: a summary has none); a planned
                // access takes one and hands it back.
                EXPECT_EQ(viaAccessArena.acquires() == 0, streamless);
                EXPECT_EQ(viaAccessArena.pooledRequests(),
                          streamless ? 0u : 1u);

                // Without a cache: a fresh backend, same answer.
                TierCounters uncachedTiers;
                EXPECT_TRUE(unit.access(a1, stride, c.length, nullptr,
                                        nullptr,
                                        TierPolicy::TheoryFirst,
                                        &uncachedTiers, detail)
                            == viaPlan);
                EXPECT_EQ(uncachedTiers, viaPlanTiers);
            }
        }
    }
}

/** Grid of unit configurations spanning every mapping kind. */
std::vector<VectorUnitConfig>
auditConfigs()
{
    std::vector<VectorUnitConfig> cfgs;
    VectorUnitConfig base;
    base.t = 2;
    base.lambda = 6;

    VectorUnitConfig matched = base;
    matched.kind = MemoryKind::Matched;
    cfgs.push_back(matched);

    VectorUnitConfig sectioned = base;
    sectioned.kind = MemoryKind::Sectioned;
    cfgs.push_back(sectioned);

    VectorUnitConfig simple = base;
    simple.kind = MemoryKind::SimpleUnmatched;
    simple.mOverride = 3; // s = 4 >= m = 3
    cfgs.push_back(simple);

    VectorUnitConfig dynamic = base;
    dynamic.kind = MemoryKind::DynamicTuned;
    dynamic.dynamicTune = 2;
    cfgs.push_back(dynamic);

    VectorUnitConfig prand = base;
    prand.kind = MemoryKind::PseudoRandom;
    cfgs.push_back(prand);

    return cfgs;
}

// The acceptance audit: every mapping kind x strides spanning
// in- and out-of-window families x lengths around the register
// size x randomized starts x both port counts.  Every access the
// theory tier claims must be bit-identical to the per-cycle
// simulator, and the tier must claim a nonzero share of the grid.
TEST(TheoryBackendAudit, RandomizedGridIsBitIdenticalOnClaims)
{
    Rng rng(0xA0D17ull);
    std::uint64_t claimed = 0;
    std::uint64_t fallback = 0;

    for (const VectorUnitConfig &cfg : auditConfigs()) {
        const VectorAccessUnit unit(cfg);
        const std::uint64_t reg = cfg.registerLength();

        BackendCache theoryCache;
        BackendCache simCache;

        for (unsigned family = 0; family <= 7; ++family) {
            for (std::uint64_t sigma : {1ull, 3ull}) {
                const std::uint64_t stride = sigma << family;
                for (std::uint64_t length :
                     {reg, reg / 2, reg * 2, std::uint64_t{5}}) {
                    const Addr a1 =
                        rng.below(2) ? 0 : rng.below(1u << 16);

                    // Single port: plan once, execute under
                    // each tier, compare bit for bit.
                    const AccessPlan plan =
                        unit.plan(a1, Stride(stride), length);
                    TierCounters tc;
                    const AccessResult viaTier = unit.execute(
                        plan, nullptr, &theoryCache,
                        TierPolicy::TheoryFirst, &tc);
                    const AccessResult simulated = unit.execute(
                        plan, nullptr, &simCache);
                    EXPECT_EQ(viaTier, simulated)
                        << cfg.describe() << " stride=" << stride
                        << " length=" << length << " a1=" << a1;
                    claimed += tc.claimed;
                    fallback += tc.fallback;

                    // Two ports: the tier must fall back, and
                    // falling back must not disturb results.
                    const std::vector<std::vector<Request>>
                        streams = {plan.stream, plan.stream};
                    const MultiPortResult tierPorts =
                        unit.executePorts(
                            streams, nullptr, &theoryCache,
                            TierPolicy::TheoryFirst, &tc);
                    const MultiPortResult simPorts =
                        unit.executePorts(streams, nullptr,
                                          &simCache);
                    EXPECT_EQ(tierPorts, simPorts)
                        << cfg.describe() << " ports=2 stride="
                        << stride << " length=" << length;
                }
            }
        }
    }

    // The default-style grid is mostly conflict free by
    // construction; a silent claim rate of zero would mean the
    // fast path never engaged and the audit proved nothing.
    EXPECT_GT(claimed, 0u);
    EXPECT_GT(fallback, 0u);
    const double rate =
        static_cast<double>(claimed)
        / static_cast<double>(claimed + fallback);
    std::printf("theory tier claim rate: %llu/%llu (%.1f%%)\n",
                static_cast<unsigned long long>(claimed),
                static_cast<unsigned long long>(claimed + fallback),
                100.0 * rate);
}

sim::ScenarioGrid
mixedGrid()
{
    sim::ScenarioGrid grid;
    for (const VectorUnitConfig &cfg : auditConfigs())
        grid.mappings.push_back(cfg);
    grid.addFamilies(0, 7, {1, 3});
    grid.lengths = {0, 5};
    grid.starts = {0};
    grid.randomStarts = 1;
    grid.ports = {1, 2};
    grid.seed = 0xC0FFEEull;
    return grid;
}

TEST(TheoryBackendAudit, AuditBothSweepFindsNoDivergence)
{
    sim::SweepOptions opts;
    opts.tier = TierPolicy::AuditBoth;
    sim::SweepRunStats stats;
    const sim::SweepReport report =
        sim::SweepEngine(opts).run(mixedGrid(), &stats);

    EXPECT_EQ(stats.tierAuditDivergences, 0u);
    EXPECT_GT(stats.theoryClaims, 0u);
    EXPECT_GT(stats.theoryFallbacks, 0u);
    for (const auto &o : report.outcomes)
        EXPECT_FALSE(o.tierAuditDiverged) << "job " << o.index;
}

TEST(TheoryBackendAudit, TierChangesOnlyAttributionColumns)
{
    const sim::ScenarioGrid grid = mixedGrid();
    sim::SweepOptions simOpts;
    simOpts.tier = TierPolicy::SimulateAlways;
    const sim::SweepReport simulated =
        sim::SweepEngine(simOpts).run(grid);

    sim::SweepOptions theoryOpts;
    theoryOpts.tier = TierPolicy::TheoryFirst;
    sim::SweepRunStats stats;
    const sim::SweepReport theory =
        sim::SweepEngine(theoryOpts).run(grid, &stats);
    EXPECT_GT(stats.theoryClaims, 0u);

    ASSERT_EQ(theory.outcomes.size(), simulated.outcomes.size());
    for (std::size_t i = 0; i < theory.outcomes.size(); ++i) {
        sim::ScenarioOutcome normalized = theory.outcomes[i];
        EXPECT_EQ(normalized.tierLabel(), std::string("theory"));
        normalized.theoryClaimed = 0;
        normalized.theoryFallback = 0;
        normalized.fallbackReason = FallbackReason::None;
        EXPECT_EQ(normalized, simulated.outcomes[i])
            << "job " << i << " differs beyond tier attribution";
    }
}

// The solver's memo and the fallback memo count apart: a
// single-port access the tier cannot answer costs exactly one
// solver memo lookup and one fallback memo lookup, never a lookup
// inside the fallback simulator.  On a pseudo-random grid every module
// sequence is aperiodic, so every solver attempt misses its memo,
// fails to collapse, and falls back.
TEST(TheoryBackendAudit, SolverCountsOneMemoLookupPerAttempt)
{
    sim::ScenarioGrid grid;
    VectorUnitConfig prand;
    prand.kind = MemoryKind::PseudoRandom;
    prand.t = 2;
    prand.lambda = 6;
    grid.mappings = {prand};
    grid.addFamilies(0, 7, {1, 3, 5});
    grid.lengths = {0, 17};
    grid.randomStarts = 2;
    sim::Workload retune;
    retune.kind = sim::WorkloadKind::Retune;
    retune.retunePeriod = 2;
    grid.workloads = {sim::Workload{}, retune};
    grid.seed = 0x9EA5Dull;

    sim::SweepOptions opts;
    opts.tier = TierPolicy::TheoryFirst;
    sim::SweepRunStats stats;
    sim::SweepEngine(opts).run(grid, &stats);
    EXPECT_GT(stats.theoryFallbacks, 0u);
    EXPECT_EQ(stats.collapseHits, 0u);
    EXPECT_EQ(stats.memoMisses, stats.theoryFallbacks);
    EXPECT_EQ(stats.memoHits + stats.memoMisses,
              stats.theoryClaims + stats.theoryFallbacks);
    EXPECT_EQ(stats.fallbackMemoHits + stats.fallbackMemoMisses,
              stats.theoryFallbacks);
    // The retune workload repeats each phase's access.
    EXPECT_GT(stats.fallbackMemoHits, 0u);
}

// ---------------------------------------------------------------------
// The fallback memo: rejected accesses replayed from a bounded FIFO
// keyed on the jointly rank-canonicalized per-port module sequences.
// ---------------------------------------------------------------------

/** The kinds whose accesses reach the fallback: pseudo-random and
 *  dynamically tuned mappings (tunes 0 and 3). */
std::vector<VectorUnitConfig>
fallbackConfigs()
{
    VectorUnitConfig prand;
    prand.kind = MemoryKind::PseudoRandom;
    prand.t = 2;
    prand.lambda = 5;
    std::vector<VectorUnitConfig> cfgs = {prand};
    for (unsigned tune : {0u, 3u}) {
        VectorUnitConfig dynamic = prand;
        dynamic.kind = MemoryKind::DynamicTuned;
        dynamic.dynamicTune = tune;
        cfgs.push_back(dynamic);
    }
    return cfgs;
}

/** prand + dynamic(0,3) x ports {1,2} x mixes 1 / 1,3 / -1 x the four
 *  workload programs. */
sim::ScenarioGrid
fallbackGrid()
{
    sim::ScenarioGrid grid;
    grid.mappings = fallbackConfigs();
    grid.addFamilies(0, 5, {1, 3});
    grid.lengths = {0, 9};
    grid.randomStarts = 2;
    grid.ports = {1, 2};
    grid.portMixes = {sim::PortMix{{1}}, sim::PortMix{{1, 3}},
                      sim::PortMix{{-1}}};
    grid.workloads.clear();
    for (sim::WorkloadKind kind :
         {sim::WorkloadKind::Single, sim::WorkloadKind::Chain,
          sim::WorkloadKind::Retune, sim::WorkloadKind::Stencil}) {
        sim::Workload wl;
        wl.kind = kind;
        grid.workloads.push_back(wl);
    }
    grid.seed = 0xFA11BACCull;
    return grid;
}

/** The attribution columns zeroed: what must match the oracle. */
sim::ScenarioOutcome
stripAttribution(sim::ScenarioOutcome o)
{
    o.theoryClaimed = 0;
    o.theoryFallback = 0;
    o.fallbackReason = FallbackReason::None;
    return o;
}

TEST(FallbackMemo, SweepMatchesSimulateAlways)
{
    const sim::ScenarioGrid grid = fallbackGrid();
    sim::SweepOptions simOpts;
    simOpts.threads = 1;
    simOpts.tier = TierPolicy::SimulateAlways;
    const sim::SweepReport oracle = sim::SweepEngine(simOpts).run(grid);

    sim::SweepOptions theoryOpts = simOpts;
    theoryOpts.tier = TierPolicy::TheoryFirst;
    sim::SweepRunStats stats;
    const sim::SweepReport theory =
        sim::SweepEngine(theoryOpts).run(grid, &stats);
    EXPECT_GT(stats.fallbackMemoHits, 0u);
    EXPECT_GT(stats.fallbackMemoMisses, 0u);
    EXPECT_EQ(stats.fallbackMemoHits + stats.fallbackMemoMisses,
              stats.theoryFallbacks);

    ASSERT_EQ(theory.jobs(), oracle.jobs());
    for (std::size_t i = 0; i < theory.jobs(); ++i) {
        const sim::ScenarioOutcome &o = theory.outcomes[i];
        EXPECT_EQ(stripAttribution(o), oracle.outcomes[i])
            << "job " << i << " ("
            << theory.mappingLabels[o.mappingIndex] << ", "
            << theory.workloadLabels[o.workloadIndex] << ", ports "
            << o.ports << ", mix "
            << theory.portMixLabels[o.portMixIndex] << ")";
    }
}

/** The port streams of one access, planned like the sweep: stride
 *  scaled per port by @p mix, ports staggered, descending streams
 *  started at their top. */
std::vector<std::vector<Request>>
portStreams(const VectorAccessUnit &unit, Addr a1,
            std::uint64_t stride, std::uint64_t length,
            const std::vector<std::int64_t> &mix, unsigned ports)
{
    std::vector<std::vector<Request>> streams;
    for (unsigned p = 0; p < ports; ++p) {
        const std::int64_t mult = mix[p % mix.size()];
        const std::int64_t s = static_cast<std::int64_t>(stride) * mult;
        Addr start = a1 + Addr{p} * (Addr{1} << 20);
        if (s < 0)
            start += (length - 1) * static_cast<std::uint64_t>(-s);
        streams.push_back(unit.plan(start, s, length).stream);
    }
    return streams;
}

// Access-level differential at every detail: cold (simulated) and
// warm (replayed) answers must equal the simulator's, deliveries
// included at Full detail and aggregates at Summary detail.
TEST(FallbackMemo, ReplaysMatchTheSimulatorAtEveryDetail)
{
    Rng rng(0xFA11ull);
    for (const VectorUnitConfig &cfg : fallbackConfigs()) {
        const VectorAccessUnit unit(cfg);
        TheoryBackend tb = theoryOver(unit);
        PerCycleMultiPort oracle(unit.memConfig(), unit.mapping());
        for (unsigned family = 0; family <= 5; ++family) {
            for (const std::vector<std::int64_t> &mix :
                 {std::vector<std::int64_t>{1},
                  std::vector<std::int64_t>{1, 3},
                  std::vector<std::int64_t>{-1}}) {
                for (unsigned ports : {1u, 2u}) {
                    const Addr a1 = rng.below(1u << 16);
                    const auto streams = portStreams(
                        unit, a1, std::uint64_t{3} << family, 32,
                        mix, ports);
                    const MultiPortResult ref = oracle.run(streams);
                    // Summary first (a scalars-only entry), then
                    // Full (the upgrade), then both as hits.
                    for (ResultDetail detail :
                         {ResultDetail::Summary,
                          ResultDetail::Full, ResultDetail::Full,
                          ResultDetail::Summary}) {
                        const MultiPortResult got =
                            tb.runPorts(streams, nullptr, detail);
                        if (detail == ResultDetail::Full) {
                            EXPECT_EQ(got, ref)
                                << cfg.describe() << " family "
                                << family << " ports " << ports;
                            continue;
                        }
                        EXPECT_EQ(got.makespan, ref.makespan);
                        ASSERT_EQ(got.ports.size(), ports);
                        for (unsigned p = 0; p < ports; ++p) {
                            AccessResult agg = ref.ports[p];
                            agg.deliveries.clear();
                            AccessResult sum = got.ports[p];
                            sum.deliveries.clear();
                            EXPECT_EQ(sum, agg)
                                << cfg.describe() << " family "
                                << family << " port " << p;
                        }
                    }
                }
            }
        }
        EXPECT_GT(tb.stats().fallback, 0u) << cfg.describe();
        EXPECT_GT(tb.fastPathStats().fallbackMemoHits, 0u)
            << cfg.describe();
    }
}

// The memo changes only the speed: each scenario run on a cold
// backend cache must carry exactly the outcome, attribution columns
// included, of the same scenario inside a warm single-worker sweep.
TEST(FallbackMemo, ColdAndWarmMemoAgreeOnAttribution)
{
    const sim::ScenarioGrid grid = fallbackGrid();
    sim::SweepOptions opts;
    opts.threads = 1;
    opts.tier = TierPolicy::TheoryFirst;
    sim::SweepRunStats stats;
    const sim::SweepReport warm = sim::SweepEngine(opts).run(grid, &stats);
    EXPECT_GT(stats.fallbackMemoHits, 0u);

    std::vector<std::unique_ptr<VectorAccessUnit>> units;
    for (const VectorUnitConfig &cfg : grid.mappings)
        units.push_back(std::make_unique<VectorAccessUnit>(cfg));
    const std::vector<sim::Scenario> jobs = grid.expand();
    ASSERT_EQ(jobs.size(), warm.jobs());
    for (const sim::Scenario &sc : jobs) {
        BackendCache cold;
        const sim::ScenarioOutcome o = sim::SweepEngine::runScenario(
            grid, sc, *units[sc.mappingIndex], nullptr, &cold, nullptr,
            TierPolicy::TheoryFirst);
        EXPECT_EQ(o, warm.outcomes[sc.index]) << "job " << sc.index;
    }
}

/** True iff a fresh theory tier rejects @p plan's stream. */
bool
rejected(const VectorAccessUnit &unit, const AccessPlan &plan)
{
    TheoryBackend probe = theoryOver(unit);
    probe.runSingleHinted(false, plan.stream);
    return !probe.lastClaimed();
}

/** A pseudo-random-mapped stream the theory tier rejects. */
AccessPlan
rejectedPrandPlan(const VectorAccessUnit &unit, Addr a1)
{
    for (std::uint64_t stride = 1; stride < 64; stride += 2) {
        AccessPlan plan = unit.plan(a1, Stride(stride), 32);
        if (rejected(unit, plan))
            return plan;
    }
    ADD_FAILURE() << "no rejected stream from a1=" << a1;
    return unit.plan(a1, Stride(1), 32);
}

// A chain's last load asks for SummaryIfUniform: the EXECUTE step
// reads an empty delivery vector as a uniform schedule, so a
// summary-only entry must not answer it.  The load re-simulates,
// upgrades the entry, and later Full requests replay it.
TEST(FallbackMemo, SummaryOnlyEntryStillDeliversToChainedLoads)
{
    VectorUnitConfig cfg = fallbackConfigs().front();
    const VectorAccessUnit unit(cfg);
    const AccessPlan plan = rejectedPrandPlan(unit, 0);
    TheoryBackend tb = theoryOver(unit);
    const AccessResult ref = tb.fallback().runSingle(plan.stream);
    ASSERT_FALSE(ref.deliveries.empty());
    const auto memo = [&tb] { return tb.fastPathStats(); };

    // Miss: simulated, entry kept as scalars only.
    EXPECT_EQ(tb.runSingleHinted(false, plan.stream, nullptr,
                                 ResultDetail::Summary),
              ref);
    EXPECT_FALSE(tb.lastClaimed());
    EXPECT_EQ(memo().fallbackMemoMisses, 1u);

    // Hit at Summary: aggregates only, same attribution.
    const AccessResult summary = tb.runSingleHinted(
        false, plan.stream, nullptr, ResultDetail::Summary);
    EXPECT_EQ(memo().fallbackMemoHits, 1u);
    EXPECT_FALSE(tb.lastClaimed());
    EXPECT_EQ(tb.lastReason(), FallbackReason::Conflicted);
    EXPECT_TRUE(summary.deliveries.empty());
    AccessResult agg = ref;
    agg.deliveries.clear();
    EXPECT_EQ(summary, agg);

    // The chained load: same key, but deliveries are required.
    EXPECT_EQ(tb.runSingleHinted(false, plan.stream, nullptr,
                                 ResultDetail::SummaryIfUniform),
              ref);
    EXPECT_EQ(memo().fallbackMemoHits, 1u);
    EXPECT_EQ(memo().fallbackMemoMisses, 2u);

    // The upgraded entry now serves every detail.
    EXPECT_EQ(tb.runSingleHinted(false, plan.stream, nullptr,
                                 ResultDetail::Full),
              ref);
    EXPECT_EQ(tb.runSingleHinted(false, plan.stream, nullptr,
                                 ResultDetail::SummaryIfUniform),
              ref);
    EXPECT_EQ(memo().fallbackMemoHits, 3u);
    EXPECT_EQ(memo().fallbackMemoMisses, 2u);
    EXPECT_EQ(tb.stats().fallback, 5u);
}

/** Rank-canonical form of a module sequence (the memo's key). */
std::vector<ModuleId>
rankForm(const VectorAccessUnit &unit, const std::vector<Request> &s)
{
    std::vector<ModuleId> mods;
    for (const Request &r : s)
        mods.push_back(unit.mapping().moduleOf(r.addr));
    std::vector<ModuleId> used = mods;
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    for (ModuleId &m : mods)
        m = static_cast<ModuleId>(
            std::lower_bound(used.begin(), used.end(), m)
            - used.begin());
    return mods;
}

// A shifted base that reorders the modules (a pseudo-random hash
// does, almost always) must miss; replaying it would be unsound.
TEST(FallbackMemo, PrandShiftThatReordersModulesMisses)
{
    VectorUnitConfig cfg = fallbackConfigs().front();
    const VectorAccessUnit unit(cfg);
    const AccessPlan first = rejectedPrandPlan(unit, 0);
    const std::uint64_t stride =
        first.stream.size() > 1
            ? first.stream[1].addr - first.stream[0].addr
            : 1;
    AccessPlan shifted = first;
    bool found = false;
    for (Addr base = 1; base < 256 && !found; ++base) {
        shifted = unit.plan(base, Stride(stride), 32);
        found = rankForm(unit, shifted.stream)
                    != rankForm(unit, first.stream)
                && rejected(unit, shifted);
    }
    ASSERT_TRUE(found) << "no rejected reordering shift below 256";

    TheoryBackend tb = theoryOver(unit);
    EXPECT_EQ(tb.runSingleHinted(false, first.stream),
              tb.fallback().runSingle(first.stream));
    EXPECT_EQ(tb.runSingleHinted(false, shifted.stream),
              tb.fallback().runSingle(shifted.stream));
    EXPECT_EQ(tb.stats().fallback, 2u);
    EXPECT_EQ(tb.fastPathStats().fallbackMemoHits, 0u);
    EXPECT_EQ(tb.fastPathStats().fallbackMemoMisses, 2u);
}

// Property tests pinning the closed-form identities the fast path
// leans on: a formula regression here would silently corrupt
// analytic answers long before a simulation disagreed.
TEST(TheoryIdentities, WindowFractionMatchesConflictFreeFraction)
{
    for (unsigned w = 0; w <= 12; ++w) {
        EXPECT_DOUBLE_EQ(
            theory::windowFraction({0, static_cast<int>(w)}),
            theory::conflictFreeFraction(w))
            << "w=" << w;
    }
}

TEST(TheoryIdentities, EmptyWindowHasZeroFraction)
{
    EXPECT_EQ(theory::windowFraction(theory::FamilyWindow{}), 0.0);
    EXPECT_EQ(theory::windowFraction({5, 2}), 0.0);
    EXPECT_EQ(theory::FamilyWindow{}.families(), 0u);
}

TEST(TheoryIdentities, PeriodsClampAtTheWindowBoundary)
{
    for (unsigned s = 2; s <= 6; ++s) {
        for (unsigned t = 1; t <= 3; ++t) {
            // Below the boundary the period halves per family...
            EXPECT_EQ(theory::periodMatched(s, t, s + t - 1), 2u);
            // ...reaches 1 exactly at x = s+t...
            EXPECT_EQ(theory::periodMatched(s, t, s + t), 1u);
            // ...and clamps (not underflows) beyond it.
            EXPECT_EQ(theory::periodMatched(s, t, s + t + 1), 1u);
            EXPECT_EQ(theory::periodMatched(s, t, s + t + 17), 1u);

            const unsigned y = s;
            EXPECT_EQ(theory::periodSectioned(y, t, y + t - 1), 2u);
            EXPECT_EQ(theory::periodSectioned(y, t, y + t), 1u);
            EXPECT_EQ(theory::periodSectioned(y, t, y + t + 1), 1u);
        }
    }
}

TEST(TheoryIdentities, FusedWindowRoundTrips)
{
    for (unsigned t = 2; t <= 3; ++t) {
        for (unsigned lambda = 2 * t; lambda <= 8; ++lambda) {
            const unsigned s = theory::recommendedS(t, lambda);
            const unsigned y = theory::recommendedY(t, lambda);
            const auto wins =
                theory::sectionedWindows(s, y, t, lambda);
            ASSERT_TRUE(wins.fused())
                << "recommended s/y must fuse (t=" << t
                << ", lambda=" << lambda << ")";
            const theory::FamilyWindow fused = wins.fusedWindow();
            EXPECT_EQ(fused.lo, wins.low.lo);
            EXPECT_EQ(fused.hi, wins.high.hi);
            EXPECT_EQ(fused.families(),
                      wins.low.families() + wins.high.families());
            // Every family of the fused window belongs to exactly
            // one constituent window.
            for (int x = fused.lo; x <= fused.hi; ++x) {
                const unsigned ux = static_cast<unsigned>(x);
                EXPECT_NE(wins.low.contains(ux),
                          wins.high.contains(ux))
                    << "x=" << x;
                EXPECT_TRUE(fused.contains(ux));
            }
        }
    }
}

} // namespace
} // namespace cfva
