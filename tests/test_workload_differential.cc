/**
 * @file
 * Differential tests for workload programs on the sweep grid.
 *
 * Three unification contracts, each enforced bit for bit:
 *
 *  1. Engine identity: chained/decoupled totals, retune relayout
 *     cycles, and every other workload outcome are identical under
 *     the per-cycle and event-driven engines over a randomized grid
 *     of every mapping kind x every workload x 1-2 ports.
 *  2. vproc identity: the VectorProcessor — now running on the same
 *     MemoryBackend/BackendCache path — produces program timings
 *     that match the sweep's `single` and `chain` workload outcomes
 *     exactly (the refactor must not change program timings).
 *  3. Retune accounting: the Retune workload charges exactly the
 *     DynamicFieldMapping::displacedBy relayout the model defines,
 *     only for DynamicTuned mappings, and identically with and
 *     without the per-worker WorkloadUnits scratch.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/access_unit.h"
#include "core/chaining.h"
#include "mapping/dynamic.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"
#include "test_util.h"
#include "vproc/processor.h"

namespace cfva::sim {
namespace {

Workload
makeWorkload(WorkloadKind kind, Cycle execLatency = 1,
             unsigned retunePeriod = 1)
{
    Workload wl;
    wl.kind = kind;
    wl.execLatency = execLatency;
    wl.retunePeriod = retunePeriod;
    return wl;
}

/** Every mapping kind x every workload x in/out-of-window strides
 *  x 1-2 ports x randomized starts. */
ScenarioGrid
differentialGrid()
{
    VectorUnitConfig matched;
    matched.kind = MemoryKind::Matched;
    matched.t = 2;
    matched.lambda = 5;

    VectorUnitConfig sectioned;
    sectioned.kind = MemoryKind::Sectioned;
    sectioned.t = 2;
    sectioned.lambda = 5;

    VectorUnitConfig simple;
    simple.kind = MemoryKind::SimpleUnmatched;
    simple.t = 2;
    simple.lambda = 5;
    simple.mOverride = 3;

    VectorUnitConfig dynamic;
    dynamic.kind = MemoryKind::DynamicTuned;
    dynamic.t = 2;
    dynamic.lambda = 5;
    dynamic.dynamicTune = 2;

    VectorUnitConfig prand;
    prand.kind = MemoryKind::PseudoRandom;
    prand.t = 2;
    prand.lambda = 5;

    ScenarioGrid grid;
    grid.mappings = {matched, sectioned, simple, dynamic, prand};
    grid.strides = {1, 2, 3, 4, 6, 8, 24};
    grid.lengths = {0, 8};
    grid.starts = {0};
    grid.randomStarts = 2;
    grid.ports = {1, 2};
    grid.portMixes = {PortMix{}, PortMix{{1, -3}}};
    grid.workloads = {makeWorkload(WorkloadKind::Single),
                      makeWorkload(WorkloadKind::Chain, 3),
                      makeWorkload(WorkloadKind::Retune, 1, 2),
                      makeWorkload(WorkloadKind::Stencil, 2)};
    grid.seed = 0xD1FFull;
    return grid;
}

TEST(WorkloadDifferential, EnginesBitIdenticalOnRandomizedGrid)
{
    const ScenarioGrid grid = differentialGrid();
    SweepOptions per_cycle;
    per_cycle.engine = EngineKind::PerCycle;
    SweepOptions event;
    event.engine = EngineKind::EventDriven;

    const SweepReport oracle = SweepEngine(per_cycle).run(grid);
    const SweepReport fast = SweepEngine(event).run(grid);

    ASSERT_EQ(oracle.jobs(), grid.jobCount());
    ASSERT_EQ(oracle.outcomes.size(), fast.outcomes.size());
    for (std::size_t i = 0; i < oracle.outcomes.size(); ++i) {
        EXPECT_EQ(oracle.outcomes[i], fast.outcomes[i])
            << "job " << i << " ("
            << oracle.mappingLabels[oracle.outcomes[i].mappingIndex]
            << ", workload "
            << oracle
                   .workloadLabels[oracle.outcomes[i].workloadIndex]
            << ")";
    }
    EXPECT_EQ(oracle, fast);
}

TEST(WorkloadDifferential, TopOfAddressSpaceWrapsAndAuditsClean)
{
    // Addressing is modular (ScenarioGrid::starts): a start of
    // 2^64 - 1 with a positive stride wraps to address 0 on its
    // second element, and the analytic tier must still agree with
    // the stepped oracle bit for bit on every workload and port
    // count.
    constexpr Addr kTop = ~Addr{0};
    ScenarioGrid grid = differentialGrid();
    grid.starts = {kTop};
    grid.randomStarts = 0;

    SweepOptions opts;
    opts.tier = TierPolicy::AuditBoth;
    SweepRunStats stats;
    const SweepReport report = SweepEngine(opts).run(grid, &stats);
    ASSERT_EQ(report.jobs(), grid.jobCount());
    EXPECT_EQ(stats.tierAuditDivergences, 0u);
    for (const auto &o : report.outcomes) {
        EXPECT_EQ(o.a1, kTop) << "job " << o.index;
        EXPECT_FALSE(o.tierAuditDiverged) << "job " << o.index;
    }

    for (const VectorUnitConfig &cfg : grid.mappings) {
        const VectorAccessUnit unit(cfg);
        const AccessPlan plan = unit.plan(kTop, Stride(1), 8);
        std::size_t seen = 0;
        for (const Request &r : plan.stream) {
            if (r.element == 1) {
                EXPECT_EQ(r.addr, Addr{0}) << cfg.describe();
                ++seen;
            }
        }
        EXPECT_EQ(seen, 1u) << cfg.describe();
    }
}

TEST(WorkloadDifferential, SingleWorkloadFieldsMatchLegacyShape)
{
    // The default workload must reproduce the pre-workload engine:
    // one access, no chain/retune columns.
    ScenarioGrid grid = differentialGrid();
    grid.workloads = {Workload{}};
    const SweepReport report = SweepEngine().run(grid);
    for (const auto &o : report.outcomes) {
        EXPECT_EQ(o.accesses, 1u);
        EXPECT_EQ(o.decoupledCycles, 0u);
        EXPECT_EQ(o.chainedCycles, 0u);
        EXPECT_FALSE(o.chainable);
        EXPECT_EQ(o.retunes, 0u);
        EXPECT_EQ(o.retuneCycles, 0u);
    }
}

/** Runs one scenario through runScenario without worker scratch. */
ScenarioOutcome
runDirect(const ScenarioGrid &grid, std::size_t job)
{
    const std::vector<Scenario> jobs = grid.expand();
    const Scenario &sc = jobs.at(job);
    const VectorAccessUnit unit(grid.mappings[sc.mappingIndex]);
    return SweepEngine::runScenario(grid, sc, unit);
}

TEST(WorkloadDifferential, WorkerScratchDoesNotChangeOutcomes)
{
    // The batch path (BackendCache + WorkloadUnits + arena) and the
    // bare direct path must agree on every scenario, including the
    // re-tuned variant units of Retune workloads.
    const ScenarioGrid grid = differentialGrid();
    const SweepReport report = SweepEngine().run(grid);
    // Sampling stride keeps the direct (uncached) pass fast.
    for (std::size_t i = 0; i < report.outcomes.size(); i += 7)
        EXPECT_EQ(report.outcomes[i], runDirect(grid, i));
}

/** One-load / load+multiply programs for the vproc identity
 *  checks. */
Program
loadOnly(std::uint64_t stride)
{
    return {vload(0, 0, stride)};
}

Program
loadThenMul(std::uint64_t stride)
{
    return {vload(0, 0, stride), vmuls(1, 0, 3)};
}

TEST(WorkloadDifferential, VprocMatchesSingleWorkloadOutcome)
{
    const VectorUnitConfig cfg = paperMatchedExample();
    for (std::uint64_t stride : {1ull, 12ull, 16ull, 32ull}) {
        ScenarioGrid grid;
        grid.mappings = {cfg};
        grid.strides = {stride};
        grid.randomStarts = 0;
        const SweepReport report = SweepEngine().run(grid);
        ASSERT_EQ(report.jobs(), 1u);
        const ScenarioOutcome &o = report.outcomes.front();

        VectorProcessor proc(cfg);
        proc.run(loadOnly(stride));
        EXPECT_EQ(proc.stats().cycles, o.latency) << "S=" << stride;
        EXPECT_EQ(proc.stats().memoryCycles, o.latency);
        EXPECT_EQ(proc.stats().stallCycles, o.stallCycles);
        EXPECT_EQ(proc.stats().conflictFreeAccesses,
                  o.conflictFree ? 1u : 0u);
    }
}

TEST(WorkloadDifferential, VprocMatchesChainWorkloadTotals)
{
    // Program totals: vproc with chaining off = the chain
    // workload's decoupled total; chaining on = the chained total
    // when the load chains, the decoupled total otherwise.  Both
    // engines, in- and out-of-window strides.
    const VectorUnitConfig base = paperMatchedExample();
    for (EngineKind engine :
         {EngineKind::PerCycle, EngineKind::EventDriven}) {
        VectorUnitConfig cfg = base;
        cfg.engine = engine;
        for (std::uint64_t stride : {1ull, 12ull, 32ull}) {
            ScenarioGrid grid;
            grid.mappings = {cfg};
            grid.strides = {stride};
            grid.randomStarts = 0;
            grid.workloads = {makeWorkload(WorkloadKind::Chain)};
            const SweepReport report = SweepEngine().run(grid);
            ASSERT_EQ(report.jobs(), 1u);
            const ScenarioOutcome &o = report.outcomes.front();

            VectorProcessor decoupled(cfg);
            decoupled.run(loadThenMul(stride));
            EXPECT_EQ(decoupled.stats().cycles, o.decoupledCycles)
                << "S=" << stride;

            VectorProcessor chained(cfg);
            chained.enableChaining(true);
            chained.run(loadThenMul(stride));
            EXPECT_EQ(chained.stats().cycles,
                      o.chainable ? o.chainedCycles
                                  : o.decoupledCycles)
                << "S=" << stride;
            EXPECT_EQ(chained.stats().chainedOps,
                      o.chainable ? 1u : 0u);
        }
    }
}

TEST(WorkloadDifferential, RetuneChargesDisplacedByExactly)
{
    // Dynamic mapping tuned to p=0, base stride of family 2: the
    // scheme re-tunes 0 -> 2 before phase A and 2 -> 3 before
    // phase B, each charging ceil(2*T*displaced/M) cycles over the
    // access footprint.
    VectorUnitConfig dynamic;
    dynamic.kind = MemoryKind::DynamicTuned;
    dynamic.t = 2;
    dynamic.lambda = 4;
    dynamic.dynamicTune = 0;

    const std::uint64_t length = 16;
    ScenarioGrid grid;
    grid.mappings = {dynamic};
    grid.strides = {4}; // family 2
    grid.randomStarts = 0;
    grid.workloads = {makeWorkload(WorkloadKind::Retune, 1, 2)};
    const SweepReport report = SweepEngine().run(grid);
    ASSERT_EQ(report.jobs(), 1u);
    const ScenarioOutcome &o = report.outcomes.front();

    EXPECT_EQ(o.accesses, 4u); // 2 phases x period 2
    EXPECT_EQ(o.retunes, 2u);
    const Cycle expected =
        retuneRelayoutCycles(2, 0, 2, length, 4)
        + retuneRelayoutCycles(2, 2, 3, length, 4);
    EXPECT_EQ(o.retuneCycles, expected);
    EXPECT_GT(o.retuneCycles, 0u);

    // Every access runs at its tuned family's minimum latency, so
    // the whole gap between latency and the floor is relayout.
    EXPECT_TRUE(o.conflictFree);
    EXPECT_EQ(o.latency, o.minLatency + o.retuneCycles);
    EXPECT_LT(o.efficiency(), 1.0);

    // Static mappings never retune.
    ScenarioGrid staticGrid = grid;
    VectorUnitConfig matched;
    matched.kind = MemoryKind::Matched;
    matched.t = 2;
    matched.lambda = 4;
    staticGrid.mappings = {matched};
    const SweepReport staticReport =
        SweepEngine().run(staticGrid);
    EXPECT_EQ(staticReport.outcomes.front().retunes, 0u);
    EXPECT_EQ(staticReport.outcomes.front().retuneCycles, 0u);
}

TEST(WorkloadDifferential, RelayoutMemoKeyedByServiceTime)
{
    // Regression: two DynamicTuned mappings sharing m but differing
    // in t must not share a memoized relayout cost inside one
    // worker's scratch (the charge scales with T).
    VectorUnitConfig slow;
    slow.kind = MemoryKind::DynamicTuned;
    slow.t = 3;
    slow.lambda = 5;
    slow.mOverride = 3;
    slow.dynamicTune = 0;
    VectorUnitConfig fast = slow;
    fast.t = 2;

    ScenarioGrid grid;
    grid.mappings = {fast, slow};
    grid.strides = {4};
    grid.lengths = {8};
    grid.randomStarts = 0;
    grid.workloads = {makeWorkload(WorkloadKind::Retune)};

    SweepOptions oneWorker;
    oneWorker.threads = 1; // both mappings hit the same scratch
    const SweepReport report = SweepEngine(oneWorker).run(grid);
    ASSERT_EQ(report.jobs(), 2u);
    for (std::size_t i = 0; i < report.jobs(); ++i)
        EXPECT_EQ(report.outcomes[i], runDirect(grid, i)) << i;
    EXPECT_EQ(2 * report.outcomes[0].retuneCycles,
              report.outcomes[1].retuneCycles);
}

TEST(WorkloadDifferential, RelayoutCostModelSanity)
{
    // No movement, no charge; identical tunings are free.
    EXPECT_EQ(retuneRelayoutCycles(2, 3, 3, 1024, 4), 0u);
    // Moving everything costs ceil(2*T*V/M).
    const double f = cfva::DynamicFieldMapping::displacedBy(
        2, 0, 2, 1024);
    const auto displaced =
        static_cast<std::uint64_t>(f * 1024.0 + 0.5);
    EXPECT_EQ(retuneRelayoutCycles(2, 0, 2, 1024, 4),
              (2 * 4 * displaced + 3) / 4);
}

TEST(WorkloadDifferential, WorkloadLabelsAndValidation)
{
    EXPECT_EQ(Workload{}.label(), "single");
    EXPECT_EQ(makeWorkload(WorkloadKind::Chain, 4).label(),
              "chain:e4");
    EXPECT_EQ(makeWorkload(WorkloadKind::Retune, 1, 3).label(),
              "retune:p3");
    EXPECT_EQ(makeWorkload(WorkloadKind::Stencil, 2).label(),
              "stencil:e2");

    test::ScopedPanicThrow guard;
    Workload bad;
    bad.execLatency = 0;
    EXPECT_THROW(bad.validate(), std::runtime_error);
    bad = {};
    bad.retunePeriod = 0;
    EXPECT_THROW(bad.validate(), std::runtime_error);

    ScenarioGrid grid = differentialGrid();
    grid.workloads.clear();
    EXPECT_THROW(grid.expand(), std::runtime_error);
}

// An execute latency near 2^64 would wrap the chain totals (at
// L=128 the rows read decoupled=263, chained=136), so the grid
// rejects any program whose cycle totals could overflow, while a
// huge but representable latency still reports exact totals.
TEST(WorkloadDifferential, ExecLatencyOverflowIsRejected)
{
    ScenarioGrid grid;
    grid.mappings = {paperMatchedExample()};
    grid.strides = {1};
    for (WorkloadKind kind :
         {WorkloadKind::Chain, WorkloadKind::Stencil}) {
        const Workload wrap =
            makeWorkload(kind, ~Cycle{0});
        EXPECT_FALSE(wrap.cyclesFit(128, 1, 4)) << wrap.label();
        grid.workloads = {wrap};
        EXPECT_NE(grid.cycleOverflow(), "") << wrap.label();
        test::ScopedPanicThrow guard;
        EXPECT_THROW(grid.expand(), std::runtime_error)
            << wrap.label();
    }
    // Retune carries no execute step but its access count scales
    // with the period; the relayout and latency sums are checked.
    EXPECT_FALSE(makeWorkload(WorkloadKind::Retune, 1, ~0u)
                     .cyclesFit(Cycle{1} << 40, 1024, 8));
    EXPECT_TRUE(makeWorkload(WorkloadKind::Retune, 1, ~0u)
                    .cyclesFit(128, 1, 8));

    // A huge but representable latency runs and reports exact
    // totals: decoupled = (L - 1) + exec past the load, chained =
    // exec for a conflict-free load.
    const Cycle exec = Cycle{1} << 62;
    grid.workloads = {makeWorkload(WorkloadKind::Chain, exec)};
    EXPECT_EQ(grid.cycleOverflow(), "");
    const SweepReport report = SweepEngine().run(grid);
    ASSERT_EQ(report.jobs(), 1u);
    const ScenarioOutcome &o = report.outcomes[0];
    ASSERT_TRUE(o.conflictFree);
    EXPECT_EQ(o.decoupledCycles, o.latency + (o.length - 1) + exec);
    EXPECT_EQ(o.chainedCycles, o.latency + exec);
}

// --lengths 99999999 would plan ~1.6 GB of Requests per stream before
// the first cycle; the grid's length budget rejects it with a message
// (counting every port), while an access at the budget is accepted.
TEST(WorkloadDifferential, LengthBeyondBudgetIsRejected)
{
    ScenarioGrid grid;
    grid.mappings = {paperMatchedExample()};
    grid.strides = {1};
    grid.lengths = {99999999};
    const std::string why = grid.lengthOverBudget();
    EXPECT_NE(why.find("exceeds the length budget"), std::string::npos)
        << why;
    {
        test::ScopedPanicThrow guard;
        EXPECT_THROW(grid.expand(), std::runtime_error);
    }

    // The budget counts elements across ports, without wrapping.
    constexpr std::uint64_t kBudget = ScenarioGrid::kLengthBudget;
    grid.lengths = {kBudget / 2 + 1};
    grid.ports = {2};
    EXPECT_NE(grid.lengthOverBudget(), "");
    grid.lengths = {~std::uint64_t{0}};
    grid.ports = {1024};
    EXPECT_NE(grid.lengthOverBudget(), "");

    // Accesses at the budget are accepted.
    grid.lengths = {kBudget / 2};
    grid.ports = {1, 2};
    EXPECT_EQ(grid.lengthOverBudget(), "");
    EXPECT_EQ(grid.expand().size(), 2u);
}

} // namespace
} // namespace cfva::sim
