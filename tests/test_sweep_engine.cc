/**
 * @file
 * Tests for the batch scenario sweep engine (src/sim/).
 *
 * The engine's contract: a grid expands deterministically, every
 * job runs exactly once, and the merged SweepReport is identical at
 * any thread count and stealing granularity — including grids with
 * randomized start addresses, whose randomness is consumed during
 * (single-threaded) expansion.
 */

#include <gtest/gtest.h>

#include "core/access_unit.h"
#include "sim/cli.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"
#include "test_util.h"
#include "theory/theory.h"

namespace cfva::sim {
namespace {

ScenarioGrid
smallGrid()
{
    ScenarioGrid grid;
    grid.mappings.push_back(paperMatchedExample());
    VectorUnitConfig sectioned = paperSectionedExample();
    grid.mappings.push_back(sectioned);
    grid.addFamilies(0, 6, {1, 3, 5});
    grid.starts = {0, 13};
    grid.randomStarts = 2;
    grid.seed = 0xC0FFEEull;
    return grid;
}

SweepReport
runAt(const ScenarioGrid &grid, unsigned threads, std::size_t grain)
{
    SweepOptions opts;
    opts.threads = threads;
    opts.grain = grain;
    return SweepEngine(opts).run(grid);
}

TEST(ScenarioGrid, JobCountMatchesExpansion)
{
    const ScenarioGrid grid = smallGrid();
    const auto jobs = grid.expand();
    EXPECT_EQ(jobs.size(), grid.jobCount());
    EXPECT_EQ(jobs.size(),
              2u * (7u * 3u) * 1u * (2u + 2u) * 1u);

    // Indices are dense and in expansion order.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
}

TEST(ScenarioGrid, ExpansionIsDeterministic)
{
    const ScenarioGrid grid = smallGrid();
    EXPECT_EQ(grid.expand(), grid.expand());

    // A different seed moves the randomized starts.
    ScenarioGrid reseeded = smallGrid();
    reseeded.seed ^= 1;
    EXPECT_NE(grid.expand(), reseeded.expand());
}

TEST(ScenarioGrid, LengthZeroResolvesToRegisterLength)
{
    ScenarioGrid grid;
    grid.mappings.push_back(paperMatchedExample()); // lambda = 7
    grid.strides = {1};
    grid.lengths = {0, 32};
    const auto jobs = grid.expand();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].length, 128u);
    EXPECT_EQ(jobs[1].length, 32u);
}

TEST(SweepEngine, EmptyGridYieldsEmptyReport)
{
    ScenarioGrid no_mappings;
    no_mappings.strides = {1, 2};
    const SweepReport r1 = SweepEngine().run(no_mappings);
    EXPECT_EQ(r1.jobs(), 0u);
    EXPECT_TRUE(r1.mappingLabels.empty());
    SummarySink s1;
    r1.stream(s1);
    EXPECT_EQ(s1.conflictFreeJobs(), 0u);
    EXPECT_TRUE(s1.perMapping().empty());

    ScenarioGrid no_strides;
    no_strides.mappings.push_back(paperMatchedExample());
    const SweepReport r2 = SweepEngine().run(no_strides);
    EXPECT_EQ(r2.jobs(), 0u);
    // Labels survive so callers can still render a (empty) report.
    ASSERT_EQ(r2.mappingLabels.size(), 1u);
    SummarySink s2;
    r2.stream(s2);
    EXPECT_EQ(s2.summaryTable().rows(), 1u);
}

TEST(SweepEngine, SingleJobMatchesDirectSimulation)
{
    ScenarioGrid grid;
    grid.mappings.push_back(paperMatchedExample());
    grid.strides = {24}; // family x = 3, inside the [0, 4] window
    grid.starts = {13};

    const SweepReport report = SweepEngine().run(grid);
    ASSERT_EQ(report.jobs(), 1u);
    const ScenarioOutcome &o = report.outcomes[0];

    const VectorAccessUnit unit(grid.mappings[0]);
    const AccessResult direct = unit.access(13, Stride(24), 128);

    EXPECT_EQ(o.latency, direct.latency);
    EXPECT_EQ(o.stallCycles, direct.stallCycles);
    EXPECT_EQ(o.conflictFree, direct.conflictFree);
    EXPECT_EQ(o.family, 3u);
    EXPECT_EQ(o.length, 128u);
    EXPECT_EQ(o.minLatency,
              theory::minimumLatency(128, 8));
    EXPECT_TRUE(o.inWindow);
}

TEST(SweepEngine, ReportIdenticalAtAnyThreadCount)
{
    const ScenarioGrid grid = smallGrid();
    const SweepReport base = runAt(grid, 1, 8);
    EXPECT_EQ(base.jobs(), grid.jobCount());

    for (unsigned threads : {2u, 3u, 8u}) {
        const SweepReport r = runAt(grid, threads, 8);
        EXPECT_EQ(r, base) << "thread count " << threads;
    }
}

TEST(SweepEngine, ReportIdenticalAtAnyGrain)
{
    const ScenarioGrid grid = smallGrid();
    const SweepReport base = runAt(grid, 4, 1);
    for (std::size_t grain : {3u, 16u, 1000u}) {
        const SweepReport r = runAt(grid, 4, grain);
        EXPECT_EQ(r, base) << "grain " << grain;
    }
}

TEST(SweepEngine, OutcomesMatchTheoryWindows)
{
    // Every in-window full-register access on the paper's matched
    // example must be measured conflict free, and vice versa for
    // fixed start 0 (the canonical distribution).
    ScenarioGrid grid;
    grid.mappings.push_back(paperMatchedExample());
    grid.addFamilies(0, 6, {1, 3});
    const SweepReport report = SweepEngine().run(grid);
    for (const auto &o : report.outcomes)
        EXPECT_EQ(o.conflictFree, o.inWindow)
            << "stride " << o.stride;
}

TEST(SweepEngine, MultiPortScenariosRun)
{
    ScenarioGrid grid;
    grid.mappings.push_back(paperSectionedExample());
    grid.strides = {1};
    grid.ports = {1, 2};
    const SweepReport report = SweepEngine().run(grid);
    ASSERT_EQ(report.jobs(), 2u);
    EXPECT_EQ(report.outcomes[0].ports, 1u);
    EXPECT_EQ(report.outcomes[1].ports, 2u);
    // Two staggered unit-stride streams load the shared modules at
    // least as heavily as one.
    EXPECT_GE(report.outcomes[1].latency,
              report.outcomes[0].latency);
    // The latency floor is bandwidth-aware, so efficiency stays a
    // true <= 1 ratio for every port count.  M = 64 >> P*T here,
    // so both floors reduce to L + T + 1.
    for (const auto &o : report.outcomes) {
        EXPECT_EQ(o.minLatency, 137u);
        EXPECT_LE(o.minLatency, o.latency);
    }
}

TEST(SweepEngine, ReportAggregatesAreConsistent)
{
    const ScenarioGrid grid = smallGrid();
    const SweepReport report = SweepEngine().run(grid);

    std::uint64_t cf = 0;
    Cycle latency = 0;
    for (const auto &o : report.outcomes) {
        cf += o.conflictFree ? 1 : 0;
        latency += o.latency;
    }
    SummarySink summary;
    report.stream(summary);
    EXPECT_EQ(summary.conflictFreeJobs(), cf);
    EXPECT_EQ(summary.totalLatency(), latency);

    const auto per = summary.perMapping();
    ASSERT_EQ(per.size(), 2u);
    std::uint64_t jobs = 0;
    for (const auto &m : per)
        jobs += m.jobs;
    EXPECT_EQ(jobs, report.jobs());
}

TEST(SweepEngine, RejectsInvalidGrids)
{
    test::ScopedPanicThrow guard;

    ScenarioGrid zero_stride;
    zero_stride.mappings.push_back(paperMatchedExample());
    zero_stride.strides = {0};
    EXPECT_THROW(SweepEngine().run(zero_stride),
                 std::runtime_error);

    ScenarioGrid zero_ports;
    zero_ports.mappings.push_back(paperMatchedExample());
    zero_ports.strides = {1};
    zero_ports.ports = {0};
    EXPECT_THROW(SweepEngine().run(zero_ports),
                 std::runtime_error);
}

// The job count is a product of seven axis sizes; --random-starts
// 4294967295 on cfva_sweep's default grid (matched and sectioned at
// T = 2, 3, 64 strides) asks for 2^40 jobs, about 70 TB of Scenario
// records.  expand() must refuse before reserving any of them.
TEST(ScenarioGrid, RejectsGridsBeyondTheJobBudget)
{
    ScenarioGrid grid;
    for (MemoryKind kind : {MemoryKind::Matched, MemoryKind::Sectioned}) {
        for (unsigned t : {2u, 3u}) {
            VectorUnitConfig cfg;
            cfg.kind = kind;
            cfg.t = t;
            cfg.lambda = 7;
            grid.mappings.push_back(cfg);
        }
    }
    grid.addFamilies(0, 7, {1, 3, 5, 7, 9, 11, 13, 15});
    grid.randomStarts = 4294967295u;
    EXPECT_EQ(grid.jobCount(), std::size_t{4} * 64 * (std::size_t{1} << 32));
    EXPECT_NE(grid.jobsOverBudget().find("job budget"),
              std::string::npos);

    test::ScopedPanicThrow guard;
    EXPECT_THROW(grid.expand(), std::runtime_error);

    // The budget itself is inclusive.
    ScenarioGrid edge;
    edge.mappings.push_back(paperMatchedExample());
    edge.strides = {1};
    edge.randomStarts = ScenarioGrid::kJobBudget - 1; // + start 0
    EXPECT_EQ(edge.jobCount(), ScenarioGrid::kJobBudget);
    EXPECT_EQ(edge.jobsOverBudget(), "");
    ++edge.randomStarts;
    EXPECT_NE(edge.jobsOverBudget(), "");
}

/** One matched T = 2 mapping (128-element register), stride
 *  @p stride, no random starts — the shape of the port-mix
 *  overflow cases below. */
ScenarioGrid
portMixGrid(std::uint64_t stride, std::vector<std::int64_t> mix)
{
    ScenarioGrid grid;
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::Matched;
    cfg.t = 2;
    cfg.lambda = 7;
    grid.mappings = {cfg};
    grid.strides = {stride};
    grid.portMixes = {PortMix{std::move(mix)}};
    return grid;
}

// Port strides and descending anchors used to pass validation and
// then abort a worker: |base x multiplier| beyond int64, a
// descending span (L - 1) x |S| beyond 64 bits, and a descending
// top a1 + (L - 1) x |S| that wraps.  expand() must refuse each
// with a message, while the largest grids that fit still run.
TEST(ScenarioGrid, RejectsPortStridesAndAddressesThatOverflow)
{
    constexpr std::uint64_t kMaxSigned = ~std::uint64_t{0} >> 1;
    ScenarioGrid mixed = portMixGrid(kMaxSigned, {1, 3});
    mixed.ports = {2};
    ScenarioGrid span = portMixGrid((std::uint64_t{1} << 62) + 1, {-1});
    ScenarioGrid wraps = portMixGrid(8, {-1});
    wraps.starts = {18446744073709551000ull};
    ScenarioGrid retune = portMixGrid(std::uint64_t{1} << 61, {3});
    Workload twoPhase;
    twoPhase.kind = WorkloadKind::Retune;
    retune.workloads = {twoPhase};

    test::ScopedPanicThrow guard;
    for (const ScenarioGrid *grid : {&mixed, &span, &wraps, &retune}) {
        EXPECT_NE(grid->addressOverflow(), "");
        EXPECT_THROW(grid->expand(), std::runtime_error);
    }
    EXPECT_NE(mixed.addressOverflow().find("stride range"),
              std::string::npos);
    EXPECT_NE(wraps.addressOverflow().find("address space"),
              std::string::npos);

    // The bounds are inclusive: the widest ascending stride on one
    // port, and a descending access whose top is 2^64 - 1, run.
    ScenarioGrid widest = portMixGrid(kMaxSigned, {1, 3});
    ScenarioGrid top = portMixGrid(8, {-1});
    top.starts = {~std::uint64_t{0} - 127 * 8};
    for (const ScenarioGrid *grid : {&widest, &top}) {
        EXPECT_EQ(grid->addressOverflow(), "");
        EXPECT_EQ(SweepEngine().run(*grid).jobs(), 1u);
    }
    ++top.starts[0];
    EXPECT_NE(top.addressOverflow(), "");
}

// The strict list parsers behind cfva_sweep's --kinds/--workloads/
// --tunes/--port-mix: empty items and silent duplicates used to
// inflate grids or mask typos; now they are hard errors naming the
// flag and the offending token.
TEST(SweepCli, SplitFlagListAcceptsCleanLists)
{
    EXPECT_EQ(splitFlagList("--kinds", "matched"),
              (std::vector<std::string>{"matched"}));
    EXPECT_EQ(splitFlagList("--kinds", "matched,sectioned,prand"),
              (std::vector<std::string>{"matched", "sectioned",
                                        "prand"}));
    // Duplicates are data when the caller says so (--port-mix
    // groups).
    EXPECT_EQ(splitFlagList("--port-mix", "1,1,2",
                            /*allowDuplicates=*/true),
              (std::vector<std::string>{"1", "1", "2"}));
}

TEST(SweepCli, SplitFlagListRejectsEmptyAndDuplicateItems)
{
    test::ScopedPanicThrow guard;
    EXPECT_THROW(splitFlagList("--kinds", ""), std::runtime_error);
    EXPECT_THROW(splitFlagList("--kinds", "matched,,matched"),
                 std::runtime_error);
    EXPECT_THROW(splitFlagList("--kinds", ",matched"),
                 std::runtime_error);
    EXPECT_THROW(splitFlagList("--kinds", "matched,"),
                 std::runtime_error);
    EXPECT_THROW(splitFlagList("--kinds", "matched,matched"),
                 std::runtime_error);
    EXPECT_THROW(splitFlagList("--tunes", "3,3"),
                 std::runtime_error);

    // The error names the flag and the offending token.
    try {
        splitFlagList("--workloads", "single,single");
        FAIL() << "duplicate item not rejected";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--workloads"), std::string::npos);
        EXPECT_NE(what.find("single"), std::string::npos);
    }
}

TEST(SweepCli, ParsePortMixFlagParsesGroups)
{
    const auto mixes = parsePortMixFlag("--port-mix", "1,3/1,-1");
    ASSERT_EQ(mixes.size(), 2u);
    EXPECT_EQ(mixes[0].multipliers,
              (std::vector<std::int64_t>{1, 3}));
    EXPECT_EQ(mixes[1].multipliers,
              (std::vector<std::int64_t>{1, -1}));

    // Duplicate multipliers inside one group are a meaningful
    // traffic pattern, not an error.
    const auto clones = parsePortMixFlag("--port-mix", "1,1,2");
    ASSERT_EQ(clones.size(), 1u);
    EXPECT_EQ(clones[0].multipliers,
              (std::vector<std::int64_t>{1, 1, 2}));
}

TEST(SweepCli, ParsePortMixFlagRejectsMalformedLists)
{
    test::ScopedPanicThrow guard;
    EXPECT_THROW(parsePortMixFlag("--port-mix", ""),
                 std::runtime_error);
    EXPECT_THROW(parsePortMixFlag("--port-mix", "1,3/"),
                 std::runtime_error);
    EXPECT_THROW(parsePortMixFlag("--port-mix", "1,,3"),
                 std::runtime_error);
    EXPECT_THROW(parsePortMixFlag("--port-mix", "1,3,"),
                 std::runtime_error);
    EXPECT_THROW(parsePortMixFlag("--port-mix", "0"),
                 std::runtime_error);
    EXPECT_THROW(parsePortMixFlag("--port-mix", "x"),
                 std::runtime_error);
    // Duplicate mixes ACROSS groups double the grid silently.
    EXPECT_THROW(parsePortMixFlag("--port-mix", "1,3/1,3"),
                 std::runtime_error);
}

} // namespace
} // namespace cfva::sim
