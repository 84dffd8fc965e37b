/**
 * @file
 * Tests for the streaming, shardable sweep pipeline.
 *
 * The pipeline's contract, each clause enforced here:
 *
 *  - Streamed CSV/JSON output is byte-identical to the
 *    materialized SweepReport::writeCsv/writeJson at any thread
 *    count, grain, tier, and shard split.
 *  - ShardSpec slices partition the job list into disjoint,
 *    contiguous, covering ranges, and the merged output of N
 *    shards (via sim/merge.h — the exact code cfva_merge runs) is
 *    bit-identical to the unsharded run for N in {1, 2, 3, 5}.
 *  - grain = 0 selects adaptive sizing (the historical division by
 *    zero) and changes nothing about the report.
 *  - The per-worker backend cache produces identical outcomes to
 *    per-access backend construction, and its hit/miss counters
 *    add up.
 *  - Streaming-mode memory is bounded by the flush window
 *    (O(threads x grain)), not by the job count.
 *  - The CSV and JSON row writers (to_chars into a reused buffer)
 *    print exactly what per-field std::ostream insertion printed,
 *    on a grid and on hand-built extremes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/access_unit.h"
#include "memsys/backend_cache.h"
#include "sim/merge.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"
#include "test_util.h"

namespace cfva::sim {
namespace {

/** A grid with every axis the report schema covers: two mappings,
 *  strides in and out of window, multi-port rows, random starts. */
ScenarioGrid
pipelineGrid()
{
    VectorUnitConfig matched;
    matched.kind = MemoryKind::Matched;
    matched.t = 2;
    matched.lambda = 4;

    VectorUnitConfig sectioned;
    sectioned.kind = MemoryKind::Sectioned;
    sectioned.t = 2;
    sectioned.lambda = 4;

    ScenarioGrid grid;
    grid.mappings = {matched, sectioned};
    grid.strides = {1, 2, 4, 6, 8};
    grid.lengths = {0, 8};
    grid.starts = {0, 5};
    grid.randomStarts = 1;
    grid.ports = {1, 2};
    grid.portMixes = {PortMix{}, PortMix{{1, -3}}};
    grid.seed = 0xBEEFull;
    return grid;
}

std::string
csvOf(const SweepReport &report)
{
    std::ostringstream os;
    report.writeCsv(os);
    return os.str();
}

std::string
jsonOf(const SweepReport &report)
{
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

/** Runs the grid streaming into CSV+JSON strings. */
struct Streamed
{
    std::string csv;
    std::string json;
    SweepRunStats stats;
};

Streamed
streamRun(const ScenarioGrid &grid, SweepOptions opts)
{
    std::ostringstream csv, json;
    CsvStreamSink csvSink(csv);
    JsonStreamSink jsonSink(json);
    TeeSink tee({&csvSink, &jsonSink});
    Streamed out;
    SweepEngine(opts).runToSink(grid, tee, &out.stats);
    out.csv = csv.str();
    out.json = json.str();
    return out;
}

TEST(SweepStream, ByteIdenticalToMaterializedAtAnyConfig)
{
    const ScenarioGrid grid = pipelineGrid();
    for (TierPolicy tier :
         {TierPolicy::SimulateAlways, TierPolicy::TheoryFirst}) {
        SweepOptions base;
        base.tier = tier;
        const SweepReport report = SweepEngine(base).run(grid);
        const std::string wantCsv = csvOf(report);
        const std::string wantJson = jsonOf(report);

        for (unsigned threads : {1u, 2u, 5u}) {
            for (std::size_t grain : {std::size_t{0}, std::size_t{3},
                                      std::size_t{1000}}) {
                SweepOptions opts;
                opts.tier = tier;
                opts.threads = threads;
                opts.grain = grain;
                const Streamed got = streamRun(grid, opts);
                EXPECT_EQ(got.csv, wantCsv)
                    << "tier " << to_string(tier) << " threads "
                    << threads << " grain " << grain;
                EXPECT_EQ(got.json, wantJson)
                    << "tier " << to_string(tier) << " threads "
                    << threads << " grain " << grain;
            }
        }
    }
}

TEST(SweepStream, ShardSlicesPartitionTheJobs)
{
    for (std::size_t jobs : {0u, 1u, 7u, 240u}) {
        for (std::size_t count : {1u, 2u, 3u, 5u, 9u}) {
            std::size_t expectFirst = 0;
            for (std::size_t i = 0; i < count; ++i) {
                const ShardSpec shard{i, count};
                shard.validate();
                const auto [first, last] = shard.sliceOf(jobs);
                EXPECT_EQ(first, expectFirst)
                    << "shard " << i << "/" << count << " over "
                    << jobs;
                EXPECT_LE(first, last);
                expectFirst = last;
            }
            EXPECT_EQ(expectFirst, jobs);
        }
    }
}

TEST(SweepStream, MergedShardsBitIdenticalToUnsharded)
{
    const ScenarioGrid grid = pipelineGrid();
    for (TierPolicy tier :
         {TierPolicy::SimulateAlways, TierPolicy::TheoryFirst}) {
        SweepOptions base;
        base.tier = tier;
        const SweepReport full = SweepEngine(base).run(grid);
        const std::string wantCsv = csvOf(full);
        const std::string wantJson = jsonOf(full);

        for (std::size_t count : {1u, 2u, 3u, 5u}) {
            std::vector<std::string> csvShards, jsonShards;
            std::size_t jobsSeen = 0;
            for (std::size_t i = 0; i < count; ++i) {
                SweepOptions opts;
                opts.tier = tier;
                opts.threads = 2;
                opts.shard = {i, count};
                const Streamed s = streamRun(grid, opts);
                csvShards.push_back(s.csv);
                jsonShards.push_back(s.json);
                jobsSeen += s.stats.jobs;
            }
            EXPECT_EQ(jobsSeen, full.jobs());

            std::vector<std::istringstream> csvIn, jsonIn;
            std::vector<std::istream *> csvPtrs, jsonPtrs;
            for (std::size_t i = 0; i < count; ++i) {
                csvIn.emplace_back(csvShards[i]);
                jsonIn.emplace_back(jsonShards[i]);
            }
            for (std::size_t i = 0; i < count; ++i) {
                csvPtrs.push_back(&csvIn[i]);
                jsonPtrs.push_back(&jsonIn[i]);
            }
            std::ostringstream mergedCsv, mergedJson;
            mergeCsv(mergedCsv, csvPtrs);
            mergeJson(mergedJson, jsonPtrs);
            EXPECT_EQ(mergedCsv.str(), wantCsv)
                << "tier " << to_string(tier) << " N=" << count;
            EXPECT_EQ(mergedJson.str(), wantJson)
                << "tier " << to_string(tier) << " N=" << count;
        }
    }
}

TEST(SweepStream, ShardedMaterializedReportsConcatenate)
{
    // The materialized path honors the shard too: outcomes carry
    // global job indices and concatenating shard reports in order
    // reproduces the full outcome list.
    const ScenarioGrid grid = pipelineGrid();
    const SweepReport full = SweepEngine().run(grid);
    std::vector<ScenarioOutcome> stitched;
    for (std::size_t i = 0; i < 3; ++i) {
        SweepOptions opts;
        opts.shard = {i, 3};
        const SweepReport part = SweepEngine(opts).run(grid);
        stitched.insert(stitched.end(), part.outcomes.begin(),
                        part.outcomes.end());
    }
    EXPECT_EQ(stitched, full.outcomes);
}

TEST(SweepStream, GrainZeroIsAdaptiveNotDivisionByZero)
{
    // Regression: grain = 0 used to reach `jobs / grain`.  Now it
    // selects the adaptive size and the report is unchanged.
    const ScenarioGrid grid = pipelineGrid();
    SweepOptions adaptive;
    adaptive.grain = 0;
    adaptive.threads = 3;
    SweepRunStats stats;
    const SweepReport a = SweepEngine(adaptive).run(grid, &stats);
    EXPECT_GE(stats.grain, 1u);
    EXPECT_LE(stats.grain, SweepOptions::kMaxAdaptiveGrain);

    SweepOptions fixed8;
    fixed8.grain = 8;
    fixed8.threads = 3;
    EXPECT_EQ(a, SweepEngine(fixed8).run(grid));
}

TEST(SweepStream, AdaptiveGrainTargetsChunksPerThread)
{
    SweepOptions opts;
    // 960 jobs on 4 threads: 960 / (8*4) = 30 jobs per chunk.
    EXPECT_EQ(opts.effectiveGrain(960, 4), 30u);
    // Tiny grids floor at 1.
    EXPECT_EQ(opts.effectiveGrain(3, 8), 1u);
    // Huge grids clamp so the flush window stays flat.
    EXPECT_EQ(opts.effectiveGrain(1u << 20, 1),
              SweepOptions::kMaxAdaptiveGrain);
    // An explicit grain always wins.
    opts.grain = 17;
    EXPECT_EQ(opts.effectiveGrain(960, 4), 17u);
}

TEST(SweepStream, RejectsImpossibleShards)
{
    test::ScopedPanicThrow guard;
    EXPECT_THROW(ShardSpec({0, 0}).validate(), std::runtime_error);
    EXPECT_THROW(ShardSpec({2, 2}).validate(), std::runtime_error);
    SweepOptions opts;
    opts.shard = {5, 3};
    EXPECT_THROW(SweepEngine{opts}, std::runtime_error);
}

TEST(SweepStream, BackendCacheMatchesFreshBackends)
{
    const ScenarioGrid grid = pipelineGrid();
    const auto jobs = grid.expand();
    BackendCache cache;
    std::vector<std::unique_ptr<VectorAccessUnit>> units;
    for (const auto &cfg : grid.mappings)
        units.push_back(std::make_unique<VectorAccessUnit>(cfg));
    for (const auto &sc : jobs) {
        const VectorAccessUnit &unit = *units[sc.mappingIndex];
        const ScenarioOutcome fresh =
            SweepEngine::runScenario(grid, sc, unit);
        const ScenarioOutcome cached = SweepEngine::runScenario(
            grid, sc, unit, nullptr, &cache);
        EXPECT_EQ(fresh, cached) << "job " << sc.index;
    }
    // One backend per mapping (single tier), everything else hits.
    EXPECT_EQ(cache.stats().misses, grid.mappings.size());
    EXPECT_EQ(cache.stats().hits + cache.stats().misses,
              jobs.size());
    EXPECT_EQ(cache.size(), grid.mappings.size());
}

TEST(SweepStream, RunStatsCountCacheTraffic)
{
    const ScenarioGrid grid = pipelineGrid();
    SweepOptions opts;
    opts.threads = 2;
    SweepRunStats stats;
    const SweepReport report = SweepEngine(opts).run(grid, &stats);
    EXPECT_EQ(stats.jobs, report.jobs());
    // Every scenario takes exactly one backend lookup; misses are
    // bounded by (workers x mappings).
    EXPECT_EQ(stats.backendCacheHits + stats.backendCacheMisses,
              report.jobs());
    EXPECT_GE(stats.backendCacheMisses, grid.mappings.size());
    EXPECT_LE(stats.backendCacheMisses,
              stats.threads * grid.mappings.size());
}

TEST(SweepStream, PendingOutcomesBoundedByWindow)
{
    ScenarioGrid grid = pipelineGrid();
    grid.randomStarts = 3; // more jobs, more reordering pressure
    SweepOptions opts;
    opts.threads = 4;
    opts.grain = 2;
    std::ostringstream os;
    CsvStreamSink sink(os);
    SweepRunStats stats;
    SweepEngine(opts).runToSink(grid, sink, &stats);
    EXPECT_GT(stats.jobs, stats.pendingWindow)
        << "grid too small to exercise the window";
    EXPECT_EQ(stats.pendingWindow,
              4 * stats.threads * stats.grain);
    EXPECT_LE(stats.peakPendingOutcomes,
              stats.pendingWindow + stats.grain);
}

// The summary a run prints is folded from the outcome stream; the
// same fold over the materialized report's replay must agree, and
// both must carry the plain sums of the outcomes.
TEST(SweepStream, SummarySinkMatchesReportAggregates)
{
    const ScenarioGrid grid = pipelineGrid();
    SummarySink streamed;
    SweepEngine().runToSink(grid, streamed);
    const SweepReport report = SweepEngine().run(grid);
    SummarySink replayed;
    report.stream(replayed);

    std::uint64_t cf = 0;
    Cycle latency = 0;
    for (const auto &o : report.outcomes) {
        cf += o.conflictFree ? 1 : 0;
        latency += o.latency;
    }
    EXPECT_EQ(streamed.jobs(), report.jobs());
    EXPECT_EQ(streamed.conflictFreeJobs(), cf);
    EXPECT_EQ(streamed.totalLatency(), latency);
    EXPECT_EQ(replayed.jobs(), streamed.jobs());
    EXPECT_EQ(replayed.conflictFreeJobs(), cf);
    EXPECT_EQ(replayed.totalLatency(), latency);

    const auto want = replayed.perMapping();
    const auto got = streamed.perMapping();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].label, want[i].label);
        EXPECT_EQ(got[i].jobs, want[i].jobs);
        EXPECT_EQ(got[i].conflictFree, want[i].conflictFree);
        EXPECT_EQ(got[i].totalLatency, want[i].totalLatency);
        EXPECT_EQ(got[i].totalStalls, want[i].totalStalls);
        EXPECT_DOUBLE_EQ(got[i].meanEfficiency,
                         want[i].meanEfficiency);
    }
    std::ostringstream wantTables, gotTables;
    replayed.summaryTable().print(wantTables, "summary");
    replayed.workloadTable().print(wantTables, "workloads");
    streamed.summaryTable().print(gotTables, "summary");
    streamed.workloadTable().print(gotTables, "workloads");
    EXPECT_EQ(gotTables.str(), wantTables.str());
}

// ---------------------------------------------------------------
// Row-writer oracle.  The CSV and JSON sinks build each row with the
// to_chars append primitive; the functions below are the row bodies
// they had when every field went through std::ostream insertion
// (efficiency through std::fixed/setprecision).  The rewritten
// writers must match them byte for byte on a theory-tier grid and
// on hand-built extremes the committed golden does not reach.
// ---------------------------------------------------------------

std::string
streamFixed(double v, int digits)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(digits) << v;
    return os.str();
}

/** The CSV rows (no header) of @p r, by stream insertion. */
std::string
oracleCsvRows(const SweepReport &r)
{
    std::ostringstream os;
    for (const ScenarioOutcome &o : r.outcomes) {
        os << o.index << ',' << r.mappingLabels[o.mappingIndex] << ','
           << o.stride << ',' << o.family << ',' << o.length << ','
           << o.a1 << ',' << o.ports << ','
           << r.portMixLabels[o.portMixIndex] << ','
           << r.workloadLabels[o.workloadIndex] << ',' << o.latency
           << ',' << o.minLatency << ',' << o.stallCycles << ','
           << (o.conflictFree ? 1 : 0) << ',' << (o.inWindow ? 1 : 0)
           << ',' << streamFixed(o.efficiency(), 4) << ','
           << o.accesses << ',' << o.decoupledCycles << ','
           << o.chainedCycles << ',' << o.chainSaved() << ','
           << (o.chainable ? 1 : 0) << ',' << o.retunes << ','
           << o.retuneCycles << ',' << o.tierLabel() << ','
           << o.theoryClaimed << ',' << o.theoryFallback << ','
           << to_string(o.fallbackReason) << "\n";
    }
    return os.str();
}

/** The whole JSON document of @p r, by stream insertion. */
std::string
oracleJson(const SweepReport &r)
{
    std::ostringstream os;
    os << "[";
    bool first = true;
    for (const ScenarioOutcome &o : r.outcomes) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "  {\"job\": " << o.index << ", \"mapping\": \""
           << r.mappingLabels[o.mappingIndex] << "\", \"stride\": "
           << o.stride << ", \"family\": " << o.family
           << ", \"length\": " << o.length << ", \"a1\": " << o.a1
           << ", \"ports\": " << o.ports << ", \"port_mix\": \""
           << r.portMixLabels[o.portMixIndex] << "\", \"workload\": \""
           << r.workloadLabels[o.workloadIndex] << "\", \"latency\": "
           << o.latency << ", \"min_latency\": " << o.minLatency
           << ", \"stalls\": " << o.stallCycles
           << ", \"conflict_free\": "
           << (o.conflictFree ? "true" : "false")
           << ", \"in_window\": " << (o.inWindow ? "true" : "false")
           << ", \"efficiency\": " << streamFixed(o.efficiency(), 6)
           << ", \"accesses\": " << o.accesses
           << ", \"decoupled\": " << o.decoupledCycles
           << ", \"chained\": " << o.chainedCycles
           << ", \"chain_saved\": " << o.chainSaved()
           << ", \"chainable\": " << (o.chainable ? "true" : "false")
           << ", \"retunes\": " << o.retunes << ", \"retune_cycles\": "
           << o.retuneCycles << ", \"tier\": \"" << o.tierLabel()
           << "\", \"theory_claimed\": " << o.theoryClaimed
           << ", \"theory_fallback\": " << o.theoryFallback
           << ", \"fallback_reason\": \""
           << to_string(o.fallbackReason) << "\"}";
    }
    os << "\n]\n";
    return os.str();
}

/** Compares line by line, so a mismatch names its first row
 *  instead of printing two whole documents. */
void
expectSameLines(const std::string &got, const std::string &want)
{
    std::istringstream g(got), w(want);
    std::string gl, wl;
    for (std::size_t line = 1;; ++line) {
        const bool gotLine = static_cast<bool>(std::getline(g, gl));
        const bool wantLine = static_cast<bool>(std::getline(w, wl));
        ASSERT_EQ(gotLine, wantLine) << "line counts differ at " << line;
        if (!gotLine)
            break;
        ASSERT_EQ(gl, wl) << "line " << line;
    }
    EXPECT_EQ(got.size(), want.size());
}

/** Checks both writers of @p report against the oracle. */
void
expectOracleRows(const SweepReport &report)
{
    const std::string csv = csvOf(report);
    const std::size_t header = csv.find('\n');
    ASSERT_NE(header, std::string::npos);
    expectSameLines(csv.substr(header + 1), oracleCsvRows(report));
    expectSameLines(jsonOf(report), oracleJson(report));
}

Workload
workloadOf(WorkloadKind kind, Cycle execLatency, unsigned retunePeriod)
{
    Workload wl;
    wl.kind = kind;
    wl.execLatency = execLatency;
    wl.retunePeriod = retunePeriod;
    return wl;
}

// (a) Every theory-tier column a grid can fill: all mapping kinds
// (dynamic re-tuning, so nonzero retunes and retune_cycles), chain
// and stencil programs (nonzero chain_saved), ports 1 and 2 with a
// descending mix, on both tiers (tier "sim" and "theory").
TEST(SweepStream, RowWritersMatchStreamInsertionOnGrid)
{
    VectorUnitConfig base;
    base.t = 2;
    base.lambda = 5;
    std::vector<VectorUnitConfig> mappings;
    for (MemoryKind kind :
         {MemoryKind::Matched, MemoryKind::Sectioned,
          MemoryKind::SimpleUnmatched, MemoryKind::DynamicTuned,
          MemoryKind::PseudoRandom}) {
        VectorUnitConfig c = base;
        c.kind = kind;
        if (kind == MemoryKind::SimpleUnmatched)
            c.mOverride = 3;
        if (kind == MemoryKind::DynamicTuned)
            c.dynamicTune = 2;
        mappings.push_back(c);
    }
    ScenarioGrid grid;
    grid.mappings = mappings;
    grid.strides = {1, 2, 3, 4, 6, 8, 24};
    grid.lengths = {0, 8};
    grid.starts = {0};
    grid.randomStarts = 1;
    grid.ports = {1, 2};
    grid.portMixes = {PortMix{}, PortMix{{1, -3}}};
    grid.workloads = {workloadOf(WorkloadKind::Single, 1, 1),
                      workloadOf(WorkloadKind::Chain, 3, 1),
                      workloadOf(WorkloadKind::Retune, 1, 2),
                      workloadOf(WorkloadKind::Stencil, 2, 1)};
    grid.seed = 0x0AC1Eull;

    std::set<std::string> reasons, tiers;
    std::set<unsigned> ports;
    bool chainSaved = false, retunes = false, retuneCycles = false;
    for (TierPolicy tier :
         {TierPolicy::SimulateAlways, TierPolicy::TheoryFirst}) {
        SweepOptions opts;
        opts.tier = tier;
        const SweepReport report = SweepEngine(opts).run(grid);
        expectOracleRows(report);
        for (const ScenarioOutcome &o : report.outcomes) {
            reasons.insert(to_string(o.fallbackReason));
            tiers.insert(o.tierLabel());
            ports.insert(o.ports);
            chainSaved |= o.chainSaved() != 0;
            retunes |= o.retunes != 0;
            retuneCycles |= o.retuneCycles != 0;
        }
    }
    // The grid must keep reaching what it is here to cover.  No
    // grid reaches "unproven" (the window theorems certify every
    // hinted access), so the hand-built rows below carry it.
    EXPECT_EQ(reasons, (std::set<std::string>{"none", "conflicted",
                                              "multiport", "dynamic"}));
    EXPECT_EQ(tiers, (std::set<std::string>{"sim", "theory"}));
    EXPECT_EQ(ports, (std::set<unsigned>{1, 2}));
    EXPECT_TRUE(chainSaved);
    EXPECT_TRUE(retunes);
    EXPECT_TRUE(retuneCycles);
}

// (b) Hand-built rows: 0 and the type maximum in every integer
// field, latency 0 (efficiency 0), exact binary ties at 4 and 6
// fractional digits, near-ties, efficiencies far above 1, and every
// fallback reason under both tier labels.
TEST(SweepStream, RowWritersMatchStreamInsertionOnExtremes)
{
    SweepReport report;
    report.mappingLabels = {"matched M=8 T=4 L=128", "m1"};
    report.portMixLabels = {"1", "1,-3"};
    report.workloadLabels = {"single", "chain:e3"};

    const auto filled = [](std::uint64_t v) {
        ScenarioOutcome o;
        o.index = v;
        o.mappingIndex = v ? 1 : 0;
        o.portMixIndex = v ? 1 : 0;
        o.workloadIndex = v ? 1 : 0;
        o.stride = v;
        o.family = static_cast<unsigned>(v);
        o.length = v;
        o.a1 = v;
        o.ports = static_cast<unsigned>(v);
        o.latency = v;
        o.minLatency = v;
        o.stallCycles = v;
        o.conflictFree = v != 0;
        o.inWindow = v != 0;
        o.accesses = v;
        o.decoupledCycles = v;
        o.chainedCycles = v;
        o.chainable = v != 0;
        o.retunes = v;
        o.retuneCycles = v;
        o.theoryClaimed = v;
        o.theoryFallback = v;
        return o;
    };
    std::vector<ScenarioOutcome> rows = {filled(0),
                                         filled(UINT64_MAX)};
    // chain_saved wraps either way round.
    ScenarioOutcome saved = filled(0);
    saved.decoupledCycles = UINT64_MAX;
    rows.push_back(saved);
    saved.decoupledCycles = 0;
    saved.chainedCycles = UINT64_MAX;
    rows.push_back(saved);
    // minLatency / latency: 1/32 = 0.03125 and 3/32 = 0.09375 tie
    // at 4 digits, 1/128 and 3/128 at 6; 5/64 ties at 5 (rounded
    // to 4 in CSV, exact in JSON); 1/20000 is not exact in binary.
    const std::pair<Cycle, Cycle> effs[] = {
        {1, 32},        {3, 32}, {1, 128},         {3, 128},
        {5, 64},        {1, 20000}, {2, 3},        {1, 1},
        {UINT64_MAX, 1}, {1, UINT64_MAX}, {UINT64_MAX, UINT64_MAX},
        {0, 7},         {7, 0}};
    for (const auto &[minLatency, latency] : effs) {
        ScenarioOutcome o = filled(0);
        o.minLatency = minLatency;
        o.latency = latency;
        rows.push_back(o);
    }
    for (FallbackReason reason :
         {FallbackReason::None, FallbackReason::Conflicted,
          FallbackReason::MultiPort, FallbackReason::Unproven,
          FallbackReason::Dynamic}) {
        for (auto [claimed, fallback] :
             {std::pair<std::uint64_t, std::uint64_t>{0, 0},
              {3, 0},
              {0, 2}}) {
            ScenarioOutcome o = filled(1);
            o.fallbackReason = reason;
            o.theoryClaimed = claimed;
            o.theoryFallback = fallback;
            rows.push_back(o);
        }
    }
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (rows[i].index != UINT64_MAX)
            rows[i].index = i;
    report.outcomes = rows;
    expectOracleRows(report);
}

TEST(SweepStream, MergeRejectsMismatchedInputs)
{
    test::ScopedPanicThrow guard;
    {
        std::istringstream a("h1,h2\n1,2\n"), b("other\n3,4\n");
        std::vector<std::istream *> in{&a, &b};
        std::ostringstream out;
        EXPECT_THROW(mergeCsv(out, in), std::runtime_error);
    }
    {
        std::istringstream a("not json at all");
        std::vector<std::istream *> in{&a};
        std::ostringstream out;
        EXPECT_THROW(mergeJson(out, in), std::runtime_error);
    }
}

TEST(SweepStream, MergeRejectsMixedSchemas)
{
    // Shards written by builds before and after a column was added
    // must fail the merge loudly, not concatenate silently.
    test::ScopedPanicThrow guard;
    {
        // Old-schema CSV shard (no workload columns) after a
        // current one.
        std::ostringstream current;
        CsvStreamSink sink(current);
        SweepReport report = SweepEngine().run(pipelineGrid());
        report.stream(sink);
        std::istringstream a(current.str());
        std::istringstream b(
            "job,mapping,stride,family,length,a1,ports,port_mix,"
            "latency,min_latency,stalls,conflict_free,in_window,"
            "efficiency\n0,m,1,0,16,0,1,1,21,21,0,1,1,1.0000\n");
        std::vector<std::istream *> in{&a, &b};
        std::ostringstream out;
        EXPECT_THROW(mergeCsv(out, in), std::runtime_error);
    }
    {
        // JSON rows whose field names differ.
        std::istringstream a(
            "[\n  {\"job\": 0, \"latency\": 21}\n]\n");
        std::istringstream b(
            "[\n  {\"job\": 1, \"latency\": 21, \"extra\": 0}\n]\n");
        std::vector<std::istream *> in{&a, &b};
        std::ostringstream out;
        EXPECT_THROW(mergeJson(out, in), std::runtime_error);
    }
    {
        // Identical schemas still merge (quoted values that differ
        // are not schema).
        std::istringstream a(
            "[\n  {\"job\": 0, \"mapping\": \"m one\"}\n]\n");
        std::istringstream b(
            "[\n  {\"job\": 1, \"mapping\": \"m two\"}\n]\n");
        std::vector<std::istream *> in{&a, &b};
        std::ostringstream out;
        mergeJson(out, in);
        EXPECT_EQ(out.str(),
                  "[\n  {\"job\": 0, \"mapping\": \"m one\"},\n"
                  "  {\"job\": 1, \"mapping\": \"m two\"}\n]\n");
    }
}

TEST(SweepStream, MergeHandlesEmptyShards)
{
    // A shard can legitimately receive zero jobs (more shards than
    // jobs); its CSV is a bare header and its JSON an empty array.
    ScenarioGrid grid;
    grid.mappings.push_back(paperMatchedExample());
    grid.strides = {1, 2}; // 2 jobs over 5 shards
    const SweepReport full = SweepEngine().run(grid);

    std::vector<std::string> csvShards, jsonShards;
    for (std::size_t i = 0; i < 5; ++i) {
        SweepOptions opts;
        opts.shard = {i, 5};
        const Streamed s = streamRun(grid, opts);
        csvShards.push_back(s.csv);
        jsonShards.push_back(s.json);
    }
    std::vector<std::istringstream> csvIn, jsonIn;
    std::vector<std::istream *> csvPtrs, jsonPtrs;
    for (std::size_t i = 0; i < 5; ++i) {
        csvIn.emplace_back(csvShards[i]);
        jsonIn.emplace_back(jsonShards[i]);
    }
    for (std::size_t i = 0; i < 5; ++i) {
        csvPtrs.push_back(&csvIn[i]);
        jsonPtrs.push_back(&jsonIn[i]);
    }
    std::ostringstream mergedCsv, mergedJson;
    mergeCsv(mergedCsv, csvPtrs);
    mergeJson(mergedJson, jsonPtrs);
    EXPECT_EQ(mergedCsv.str(), csvOf(full));
    EXPECT_EQ(mergedJson.str(), jsonOf(full));
}

TEST(SweepStream, MergeBenchToleratesExtendedWorkloadRows)
{
    // cfva_merge --bench splices rows as opaque text, so BENCH
    // files written before the per-(workload, tier) extension —
    // rows without a "tier" field, or no "workloads" section at
    // all — merge with current ones instead of failing a schema
    // check.
    std::istringstream current(
        "{\n  \"grid_jobs\": 1024,\n  \"map_path\": "
        "\"bitsliced\",\n  \"runs\": [\n    {\"engine\": \"event\", "
        "\"threads\": 1, \"scenarios_per_s\": 20000}\n  ],\n"
        "  \"workloads\": [\n    {\"workload\": \"single\", "
        "\"tier\": \"sim\", \"scenarios_per_s\": 20000}\n  ]\n}\n");
    std::istringstream old(
        "{\n  \"grid_jobs\": 1024,\n  \"runs\": [\n    "
        "{\"engine\": \"event\", \"threads\": 2, "
        "\"scenarios_per_s\": 30000}\n  ],\n  \"workloads\": [\n"
        "    {\"workload\": \"single\", \"scenarios_per_s\": "
        "29000}\n  ]\n}\n");
    std::istringstream ancient(
        "{\n  \"grid_jobs\": 1024,\n  \"runs\": [\n    "
        "{\"engine\": \"percycle\", \"threads\": 1, "
        "\"scenarios_per_s\": 9000}\n  ]\n}\n");
    std::vector<std::istream *> in{&current, &old, &ancient};
    std::ostringstream out;
    mergeBench(out, in);
    const std::string merged = out.str();

    // Header scalars come from the first file only.
    EXPECT_NE(merged.find("\"map_path\": \"bitsliced\""),
              std::string::npos);
    // All three runs rows survive, in input order.
    EXPECT_NE(merged.find("\"threads\": 2"), std::string::npos);
    EXPECT_NE(merged.find("\"percycle\""), std::string::npos);
    // Both workloads rows survive — with and without "tier" — and
    // the ancient file (no workloads section) contributes nothing.
    EXPECT_NE(merged.find("\"tier\": \"sim\""), std::string::npos);
    EXPECT_NE(merged.find("\"scenarios_per_s\": 29000"),
              std::string::npos);
    EXPECT_LT(merged.find("\"threads\": 2"),
              merged.find("\"percycle\""));
    // The document closes right after the spliced workloads array.
    EXPECT_EQ(merged.substr(merged.size() - 7), "\n  ]\n}\n");
}

TEST(SweepStream, MergeBenchRejectsNonBenchInput)
{
    test::ScopedPanicThrow guard;
    std::istringstream notBench("[\n  {\"job\": 0}\n]\n");
    std::vector<std::istream *> in{&notBench};
    std::ostringstream out;
    EXPECT_THROW(mergeBench(out, in), std::runtime_error);
}

} // namespace
} // namespace cfva::sim
