/**
 * @file
 * Google-benchmark microbenchmarks: throughput of the address
 * mappings, stream generators, AGU models, and the cycle-accurate
 * simulator.  These gauge the simulation infrastructure itself (the
 * paper's results are latency shapes, covered by E1-E13).
 */

#include <benchmark/benchmark.h>

#include <sstream>

#include "access/agu.h"
#include "access/ordering.h"
#include "core/access_unit.h"
#include "mapping/gf2_linear.h"
#include "mapping/interleave.h"
#include "mapping/skew.h"
#include "mapping/xor_matched.h"
#include "mapping/xor_sectioned.h"
#include "memsys/backend_cache.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"

namespace {

using namespace cfva;

template <typename Map>
void
mappingThroughput(benchmark::State &state, const Map &map)
{
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.moduleOf(a));
        a += 12;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_MapInterleave(benchmark::State &state)
{
    mappingThroughput(state, LowOrderInterleave(3));
}
BENCHMARK(BM_MapInterleave);

void
BM_MapXorMatched(benchmark::State &state)
{
    mappingThroughput(state, XorMatchedMapping(3, 4));
}
BENCHMARK(BM_MapXorMatched);

void
BM_MapXorSectioned(benchmark::State &state)
{
    mappingThroughput(state, XorSectionedMapping(3, 4, 9));
}
BENCHMARK(BM_MapXorSectioned);

void
BM_MapSkew(benchmark::State &state)
{
    mappingThroughput(state, SkewedMapping(3, 4, 3));
}
BENCHMARK(BM_MapSkew);

void
BM_MapGF2(benchmark::State &state)
{
    mappingThroughput(state, GF2LinearMapping::matched(3, 4));
}
BENCHMARK(BM_MapGF2);

void
BM_ConflictFreeOrderGeneration(benchmark::State &state)
{
    const XorMatchedMapping map(3, 4);
    const auto plan = makeSubsequencePlan(
        3, 4, Stride(12), static_cast<std::uint64_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(conflictFreeOrder(16, plan, map));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ConflictFreeOrderGeneration)->Arg(128)->Arg(1024);

void
BM_OutOfOrderAguStep(benchmark::State &state)
{
    const XorMatchedMapping map(3, 4);
    const auto plan = makeSubsequencePlan(3, 4, Stride(12), 128);
    auto key = [&map](Addr a) { return map.moduleOf(a); };
    OutOfOrderAgu agu(16, plan, key);
    for (auto _ : state) {
        if (agu.done()) {
            state.PauseTiming();
            agu = OutOfOrderAgu(16, plan, key);
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(agu.step());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OutOfOrderAguStep);

/**
 * One body per stream shape on the per-cycle simulator: conflict
 * free = every cycle busy; conflicted = mostly stalls.
 */
void
BM_SimulateAccess(benchmark::State &state, std::uint64_t stride)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto plan = unit.plan(16, Stride(stride), 128);
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.execute(plan));
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK_CAPTURE(BM_SimulateAccess, conflict_free, 12);
BENCHMARK_CAPTURE(BM_SimulateAccess, conflicted, 32);

void
BM_PlanFullAccess(benchmark::State &state)
{
    const VectorAccessUnit unit(paperMatchedExample());
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.plan(16, Stride(12), 128));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanFullAccess);

/**
 * The same full-register in-window access answered the way the
 * sweep answers it: certified, so the theory tier claims it from
 * its length and no stream is built.  Next to BM_PlanFullAccess it
 * reads as the planning cost a summary claim no longer pays.
 */
void
BM_CertifiedSummaryAccess(benchmark::State &state)
{
    const VectorAccessUnit unit(paperMatchedExample());
    BackendCache cache;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.access(
            16, Stride(12), 128, nullptr, &cache,
            TierPolicy::TheoryFirst, nullptr, ResultDetail::Summary));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CertifiedSummaryAccess);

/**
 * The per-access setup cost the backend cache removes: the same
 * plan executed with a fresh backend per access (the historical
 * hot path) vs through a per-worker BackendCache.  The cached/
 * fresh ratio is the construction overhead at this M.
 */
void
BM_ExecuteBackend(benchmark::State &state, bool cached)
{
    const VectorAccessUnit unit(paperSectionedExample()); // M = 64
    const auto plan = unit.plan(16, Stride(12), 128);
    BackendCache cache;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            unit.execute(plan, nullptr, cached ? &cache : nullptr));
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK_CAPTURE(BM_ExecuteBackend, fresh, false);
BENCHMARK_CAPTURE(BM_ExecuteBackend, cached, true);

/**
 * End-to-end streaming sweep: a small grid run through runToSink
 * with the CSV sink into a discarded buffer — the full production
 * pipeline (expansion, worker pool, backend cache, ordered flush,
 * formatting) measured per scenario.
 */
void
BM_SweepStreamCsv(benchmark::State &state)
{
    sim::ScenarioGrid grid;
    grid.mappings.push_back(paperMatchedExample());
    grid.addFamilies(0, 4, {1, 3});
    grid.randomStarts = 1;

    sim::SweepOptions opts;
    opts.threads = static_cast<unsigned>(state.range(0));
    const sim::SweepEngine engine(opts);
    for (auto _ : state) {
        std::ostringstream sink_os;
        sim::CsvStreamSink sink(sink_os);
        engine.runToSink(grid, sink);
        benchmark::DoNotOptimize(sink_os);
    }
    state.SetItemsProcessed(state.iterations()
                            * grid.jobCount());
}
BENCHMARK(BM_SweepStreamCsv)->Arg(1)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();
