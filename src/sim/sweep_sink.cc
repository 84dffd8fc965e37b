#include "sim/sweep_sink.h"

#include <algorithm>
#include <ostream>
#include <string_view>

#include "common/logging.h"

namespace cfva::sim {

void
ReportSink::begin(const SweepContext &ctx)
{
    report_.mappingLabels = ctx.mappingLabels;
    report_.portMixLabels = ctx.portMixLabels;
    report_.workloadLabels = ctx.workloadLabels;
    report_.outcomes.reserve(ctx.lastJob - ctx.firstJob);
}

void
ReportSink::consume(const ScenarioOutcome &outcome)
{
    report_.outcomes.push_back(outcome);
}

namespace {

/**
 * Bytes a CSV or JSON row needs besides its three labels, with room
 * to spare: the widest JSON row (every number at 20 digits, an
 * efficiency of 2^64 with 6 fractional digits, the longest words)
 * is 767 bytes plus its labels.  The put* writes check every byte
 * against the buffer's end all the same.
 */
constexpr std::size_t kRowRoom = 1024;

void
checkLabels(const ScenarioOutcome &o, const SweepContext &ctx)
{
    cfva_assert(o.mappingIndex < ctx.mappingLabels.size()
                    && o.portMixIndex < ctx.portMixLabels.size()
                    && o.workloadIndex < ctx.workloadLabels.size(),
                "outcome ", o.index, " references unknown labels");
}

/** Sizes @p row for the longest row @p ctx's labels can make. */
void
sizeRow(std::string &row, const SweepContext &ctx)
{
    std::size_t labels = 0;
    for (const auto *axis : {&ctx.mappingLabels, &ctx.portMixLabels,
                             &ctx.workloadLabels}) {
        std::size_t longest = 0;
        for (const std::string &label : *axis)
            longest = std::max(longest, label.size());
        labels += longest;
    }
    row.resize(kRowRoom + labels);
}

} // namespace

void
CsvStreamSink::begin(const SweepContext &ctx)
{
    ctx_ = ctx;
    sizeRow(row_, ctx_);
    os_ << "job,mapping,stride,family,length,a1,ports,port_mix,"
           "workload,latency,min_latency,stalls,conflict_free,"
           "in_window,efficiency,accesses,decoupled,chained,"
           "chain_saved,chainable,retunes,retune_cycles,tier,"
           "theory_claimed,theory_fallback,fallback_reason\n";
}

void
CsvStreamSink::consume(const ScenarioOutcome &o)
{
    checkLabels(o, ctx_);
    char *p = row_.data();
    char *const end = p + row_.size();
    auto num = [&](std::uint64_t v) {
        p = putText(putUint(p, end, v), end, ",");
    };
    auto str = [&](std::string_view v) {
        p = putText(putText(p, end, v), end, ",");
    };
    num(o.index);
    str(ctx_.mappingLabels[o.mappingIndex]);
    num(o.stride);
    num(o.family);
    num(o.length);
    num(o.a1);
    num(o.ports);
    str(ctx_.portMixLabels[o.portMixIndex]);
    str(ctx_.workloadLabels[o.workloadIndex]);
    num(o.latency);
    num(o.minLatency);
    num(o.stallCycles);
    num(o.conflictFree);
    num(o.inWindow);
    p = putText(putFixed(p, end, o.efficiency(), 4), end, ",");
    num(o.accesses);
    num(o.decoupledCycles);
    num(o.chainedCycles);
    num(o.chainSaved());
    num(o.chainable);
    num(o.retunes);
    num(o.retuneCycles);
    str(o.tierLabel());
    num(o.theoryClaimed);
    num(o.theoryFallback);
    p = putText(putText(p, end, to_string(o.fallbackReason)), end,
                "\n");
    os_.write(row_.data(), p - row_.data());
}

void
JsonStreamSink::begin(const SweepContext &ctx)
{
    ctx_ = ctx;
    sizeRow(row_, ctx_);
    first_ = true;
    os_ << "[";
}

void
JsonStreamSink::consume(const ScenarioOutcome &o)
{
    checkLabels(o, ctx_);
    char *p = row_.data();
    char *const end = p + row_.size();
    p = putText(p, end, first_ ? "\n  {\"job\": " : ",\n  {\"job\": ");
    first_ = false;
    p = putUint(p, end, o.index);
    // Every later field is `, "key": value`; strings quote their
    // value (labels are emitted verbatim, as ever).
    auto key = [&](std::string_view k) {
        p = putText(p, end, ", \"");
        p = putText(p, end, k);
        p = putText(p, end, "\": ");
    };
    auto num = [&](std::string_view k, std::uint64_t v) {
        key(k);
        p = putUint(p, end, v);
    };
    auto str = [&](std::string_view k, std::string_view v) {
        key(k);
        p = putText(p, end, "\"");
        p = putText(p, end, v);
        p = putText(p, end, "\"");
    };
    auto flag = [&](std::string_view k, bool v) {
        key(k);
        p = putText(p, end, v ? "true" : "false");
    };
    str("mapping", ctx_.mappingLabels[o.mappingIndex]);
    num("stride", o.stride);
    num("family", o.family);
    num("length", o.length);
    num("a1", o.a1);
    num("ports", o.ports);
    str("port_mix", ctx_.portMixLabels[o.portMixIndex]);
    str("workload", ctx_.workloadLabels[o.workloadIndex]);
    num("latency", o.latency);
    num("min_latency", o.minLatency);
    num("stalls", o.stallCycles);
    flag("conflict_free", o.conflictFree);
    flag("in_window", o.inWindow);
    key("efficiency");
    p = putFixed(p, end, o.efficiency(), 6);
    num("accesses", o.accesses);
    num("decoupled", o.decoupledCycles);
    num("chained", o.chainedCycles);
    num("chain_saved", o.chainSaved());
    flag("chainable", o.chainable);
    num("retunes", o.retunes);
    num("retune_cycles", o.retuneCycles);
    str("tier", o.tierLabel());
    num("theory_claimed", o.theoryClaimed);
    num("theory_fallback", o.theoryFallback);
    str("fallback_reason", to_string(o.fallbackReason));
    p = putText(p, end, "}");
    os_.write(row_.data(), p - row_.data());
}

void
JsonStreamSink::end()
{
    os_ << "\n]\n";
}

void
SummarySink::begin(const SweepContext &ctx)
{
    rows_.assign(ctx.mappingLabels.size(), MappingSummary{});
    effSum_.assign(ctx.mappingLabels.size(), 0.0);
    for (std::size_t i = 0; i < ctx.mappingLabels.size(); ++i)
        rows_[i].label = ctx.mappingLabels[i];
    workloadRows_.assign(ctx.workloadLabels.size(),
                         WorkloadSummary{});
    for (std::size_t i = 0; i < ctx.workloadLabels.size(); ++i)
        workloadRows_[i].label = ctx.workloadLabels[i];
    jobs_ = 0;
    conflictFree_ = 0;
    totalLatency_ = 0;
}

void
SummarySink::consume(const ScenarioOutcome &o)
{
    cfva_assert(o.mappingIndex < rows_.size(),
                "outcome references unknown mapping ", o.mappingIndex);
    cfva_assert(o.workloadIndex < workloadRows_.size(),
                "outcome references unknown workload ",
                o.workloadIndex);
    auto &w = workloadRows_[o.workloadIndex];
    ++w.jobs;
    w.accesses += o.accesses;
    w.conflictFree += o.conflictFree ? 1 : 0;
    w.totalLatency += o.latency;
    w.totalDecoupled += o.decoupledCycles;
    w.totalChained += o.chainedCycles;
    w.chainableJobs += o.chainable ? 1 : 0;
    w.totalRetunes += o.retunes;
    w.totalRetuneCycles += o.retuneCycles;
    auto &r = rows_[o.mappingIndex];
    ++r.jobs;
    r.conflictFree += o.conflictFree ? 1 : 0;
    r.totalLatency += o.latency;
    r.totalMinLatency += o.minLatency;
    r.totalStalls += o.stallCycles;
    r.theoryClaimed += o.theoryClaimed;
    r.theoryFallback += o.theoryFallback;
    effSum_[o.mappingIndex] += o.efficiency();
    ++jobs_;
    conflictFree_ += o.conflictFree ? 1 : 0;
    totalLatency_ += o.latency;
}

std::vector<MappingSummary>
SummarySink::perMapping() const
{
    std::vector<MappingSummary> rows = rows_;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        rows[i].meanEfficiency =
            rows[i].jobs
                ? effSum_[i] / static_cast<double>(rows[i].jobs)
                : 0.0;
    }
    return rows;
}

TextTable
SummarySink::summaryTable() const
{
    TextTable t({"mapping", "jobs", "conflict-free", "total latency",
                 "total stalls", "mean efficiency", "theory hits"});
    for (const auto &r : perMapping()) {
        t.row(r.label, r.jobs, ratio(r.conflictFree, r.jobs),
              r.totalLatency, r.totalStalls,
              fixed(r.meanEfficiency, 4),
              ratio(r.theoryClaimed,
                    r.theoryClaimed + r.theoryFallback));
    }
    return t;
}

TextTable
SummarySink::workloadTable() const
{
    TextTable t({"workload", "jobs", "accesses", "conflict-free",
                 "total latency", "chainable", "chain saved",
                 "retunes", "retune cycles"});
    for (const auto &r : workloadRows_) {
        t.row(r.label, r.jobs, r.accesses,
              ratio(r.conflictFree, r.jobs), r.totalLatency,
              ratio(r.chainableJobs, r.jobs), r.totalChainSaved(),
              r.totalRetunes, r.totalRetuneCycles);
    }
    return t;
}

void
TeeSink::begin(const SweepContext &ctx)
{
    for (SweepSink *s : sinks_)
        s->begin(ctx);
}

void
TeeSink::consume(const ScenarioOutcome &outcome)
{
    for (SweepSink *s : sinks_)
        s->consume(outcome);
}

void
TeeSink::end()
{
    for (SweepSink *s : sinks_)
        s->end();
}

} // namespace cfva::sim
