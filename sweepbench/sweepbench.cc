/**
 * @file
 * cfva_sweepbench: the sweep benchmark's measuring program.
 *
 * Every mode builds one of the benchmark's grids from the workload
 * name and the seed, then:
 *
 *   reference  runs the grid untimed under TierPolicy::SimulateAlways
 *              on the per-cycle engine and writes one 64-bit digest
 *              per outcome to --ref;
 *   e2e        times grid set-up, then the production sweep
 *              (SweepEngine::runToSink, TierPolicy::TheoryFirst, a
 *              CsvStreamSink over a discarding buffer) at 1 worker
 *              and at --threads workers, alternating, for --seconds,
 *              and checks every streamed outcome against --ref;
 *   trace      makes single-worker passes that time calls into each
 *              layer's public functions and records them as spans,
 *              checks the per-access replay against the program's own
 *              attribution, and reports per-layer numbers.
 *
 * The engine options the benchmark sets are threads and tier only;
 * everything else stays at the library's defaults so that a change
 * of default shows in the numbers without editing the benchmark.
 * Output is one JSON object on stdout; sweepbench/run.py turns it
 * into the benchmark's result line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/stride.h"
#include "core/access_unit.h"
#include "memsys/backend_cache.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"
#include "sim/workload.h"
#include "theory/theory_backend.h"
#include "trace.h"

#ifndef CFVA_BENCH_BUILD_TYPE
#define CFVA_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace cfva;
using namespace cfva::sim;
using sweepbench::nowNs;
using sweepbench::ScopedSpan;
using sweepbench::Tracer;

[[noreturn]] void
fail(const std::string &msg)
{
    std::cerr << "cfva_sweepbench: " << msg << "\n";
    std::exit(2);
}

double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

// ----------------------------------------------------------------------
// Workloads.  All grids cross T in {2,3}, stride families 0..7 x odd
// sigma 1..15, one full-register access length, start 0 plus seeded
// random starts.
// ----------------------------------------------------------------------

/** Appends one configuration per (t, lambda, variant) for @p kind;
 *  the variant is m for SimpleUnmatched and the tune for
 *  DynamicTuned, and ignored otherwise. */
void
addKind(ScenarioGrid &grid, MemoryKind kind,
        const std::vector<unsigned> &lambdas,
        const std::vector<unsigned> &variants = {0})
{
    for (unsigned t : {2u, 3u}) {
        for (unsigned lambda : lambdas) {
            for (unsigned v : variants) {
                VectorUnitConfig cfg;
                cfg.kind = kind;
                cfg.t = t;
                cfg.lambda = lambda;
                if (kind == MemoryKind::SimpleUnmatched)
                    cfg.mOverride = v;
                if (kind == MemoryKind::DynamicTuned)
                    cfg.dynamicTune = v;
                grid.mappings.push_back(cfg);
            }
        }
    }
}

void
setWorkloads(ScenarioGrid &grid,
             const std::vector<WorkloadKind> &kinds)
{
    grid.workloads.clear();
    for (WorkloadKind k : kinds) {
        Workload wl;
        wl.kind = k;
        grid.workloads.push_back(wl);
    }
}

/** The grid of workload @p name, or fail().  The job counts are
 *  part of each workload's definition and are checked. */
ScenarioGrid
buildGrid(const std::string &name, std::uint64_t seed)
{
    ScenarioGrid grid;
    std::size_t expectJobs = 0;
    if (name == "wide") {
        // The ROADMAP's optimisation target: analytic path plus the
        // simulated remnant, 16 starts per combination.
        addKind(grid, MemoryKind::Matched, {7});
        addKind(grid, MemoryKind::Sectioned, {7});
        addKind(grid, MemoryKind::SimpleUnmatched, {7}, {3});
        addKind(grid, MemoryKind::DynamicTuned, {7}, {0, 3});
        addKind(grid, MemoryKind::PseudoRandom, {7});
        setWorkloads(grid, {WorkloadKind::Single, WorkloadKind::Chain,
                            WorkloadKind::Retune,
                            WorkloadKind::Stencil});
        grid.randomStarts = 15;
        expectJobs = 49152;
    } else if (name == "claimed") {
        // Every access answered analytically: time goes to plan,
        // claim, orchestration and CSV emit.
        addKind(grid, MemoryKind::Matched, {6, 7, 8});
        addKind(grid, MemoryKind::Sectioned, {6, 7, 8});
        addKind(grid, MemoryKind::SimpleUnmatched, {6, 7, 8}, {3});
        setWorkloads(grid, {WorkloadKind::Single, WorkloadKind::Chain,
                            WorkloadKind::Stencil});
        grid.randomStarts = 7;
        expectJobs = 27648;
    } else if (name == "simulated") {
        // Mostly simulator fallbacks, multi-port beside single-port.
        addKind(grid, MemoryKind::DynamicTuned, {7}, {0, 3});
        addKind(grid, MemoryKind::PseudoRandom, {7});
        setWorkloads(grid, {WorkloadKind::Single, WorkloadKind::Retune,
                            WorkloadKind::Stencil});
        grid.ports = {1, 2};
        grid.portMixes = {PortMix{{1}}, PortMix{{1, 3}}, PortMix{{-1}}};
        grid.randomStarts = 3;
        expectJobs = 27648;
    } else {
        fail("unknown workload '" + name
             + "' (expected wide, claimed or simulated)");
    }
    grid.addFamilies(0, 7, {1, 3, 5, 7, 9, 11, 13, 15});
    grid.seed = seed;
    if (grid.jobCount() != expectJobs) {
        fail("workload " + name + " has "
             + std::to_string(grid.jobCount()) + " jobs, expected "
             + std::to_string(expectJobs));
    }
    return grid;
}

// ----------------------------------------------------------------------
// Output checking.
// ----------------------------------------------------------------------

std::uint64_t
mix64(std::uint64_t h, std::uint64_t v)
{
    // splitmix64 finaliser over the running state.
    std::uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6)
                           + (h >> 2));
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * Digest of every ScenarioOutcome field the reference must
 * reproduce: all of them except the theory-tier attribution
 * (theoryClaimed, theoryFallback, fallbackReason) and the audit flag
 * (tierAuditDiverged), which legitimately differ between tiers.
 */
std::uint64_t
digest(const ScenarioOutcome &o)
{
    const std::uint64_t fields[] = {
        o.index,           o.mappingIndex,
        o.portMixIndex,    o.workloadIndex,
        o.stride,          o.family,
        o.length,          o.a1,
        o.ports,           o.latency,
        o.minLatency,      o.stallCycles,
        o.conflictFree,    o.inWindow,
        o.accesses,        o.decoupledCycles,
        o.chainedCycles,   o.chainable,
        o.retunes,         o.retuneCycles,
    };
    std::uint64_t h = 0xC0FFEE;
    for (std::uint64_t f : fields)
        h = mix64(h, f);
    return h;
}

/** A streambuf that counts and discards what is written to it. */
class DiscardBuf final : public std::streambuf
{
  public:
    DiscardBuf() { setp(buf_, buf_ + sizeof buf_); }

    std::uint64_t
    bytes() const
    {
        return flushed_ + static_cast<std::uint64_t>(pptr() - pbase());
    }

  protected:
    int_type
    overflow(int_type c) override
    {
        flushed_ += static_cast<std::uint64_t>(pptr() - pbase());
        setp(buf_, buf_ + sizeof buf_);
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(c);
            pbump(1);
        }
        return traits_type::not_eof(c);
    }

  private:
    char buf_[4096];
    std::uint64_t flushed_ = 0;
};

/**
 * Forwards a sweep to @p inner and checks each outcome against the
 * reference digests.  With a tracer, every call into the inner sink
 * is recorded as a "sim.sink" span.
 */
class CheckSink final : public SweepSink
{
  public:
    CheckSink(SweepSink &inner, const std::vector<std::uint64_t> &ref,
              Tracer *tracer = nullptr)
        : inner_(inner), ref_(ref), tracer_(tracer),
          span_(tracer ? tracer->intern("sim.sink") : 0)
    {
    }

    void
    begin(const SweepContext &ctx) override
    {
        forward(ctx.firstJob, [&] { inner_.begin(ctx); });
    }

    void
    consume(const ScenarioOutcome &o) override
    {
        forward(o.index, [&] { inner_.consume(o); });
        if (o.index != seen_ || o.index >= ref_.size()
            || digest(o) != ref_[o.index])
            ++failed_;
        ++seen_;
    }

    void
    end() override
    {
        forward(seen_, [&] { inner_.end(); });
    }

    /** Outcomes that differ from the reference, counting every
     *  outcome the sweep never delivered as failed. */
    std::uint64_t
    failed() const
    {
        return failed_ + (seen_ < ref_.size() ? ref_.size() - seen_ : 0);
    }

  private:
    template <class F>
    void
    forward(std::uint64_t trace, F &&call)
    {
        if (!tracer_) {
            call();
            return;
        }
        ScopedSpan s(*tracer_, span_, trace);
        call();
    }

    SweepSink &inner_;
    const std::vector<std::uint64_t> &ref_;
    Tracer *tracer_;
    std::uint32_t span_;
    std::uint64_t seen_ = 0;
    std::uint64_t failed_ = 0;
};

/** Records the digest of every outcome, by job index. */
class DigestSink final : public SweepSink
{
  public:
    explicit DigestSink(std::size_t jobs) : digests_(jobs, 0) {}

    void
    consume(const ScenarioOutcome &o) override
    {
        if (o.index >= digests_.size())
            fail("reference outcome index out of range");
        digests_[o.index] = digest(o);
        ++seen_;
    }

    const std::vector<std::uint64_t> &digests() const { return digests_; }
    std::size_t seen() const { return seen_; }

  private:
    std::vector<std::uint64_t> digests_;
    std::size_t seen_ = 0;
};

std::vector<std::uint64_t>
loadReference(const std::string &path, std::size_t jobs)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fail("cannot read reference " + path);
    std::vector<std::uint64_t> ref(jobs);
    is.read(reinterpret_cast<char *>(ref.data()),
            static_cast<std::streamsize>(jobs * sizeof(std::uint64_t)));
    if (is.gcount()
        != static_cast<std::streamsize>(jobs * sizeof(std::uint64_t)))
        fail("reference " + path + " is truncated");
    return ref;
}

// ----------------------------------------------------------------------
// Small JSON writer for the program's one output object.
// ----------------------------------------------------------------------

class JsonOut
{
  public:
    void
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        field(key) << (std::isfinite(v) ? buf : "null");
    }

    void
    count(const std::string &key, std::uint64_t v)
    {
        field(key) << v;
    }

    void
    list(const std::string &key, const std::vector<double> &vs)
    {
        std::ostream &os = field(key);
        os << '[';
        for (std::size_t i = 0; i < vs.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", vs[i]);
            os << (i ? ", " : "") << buf;
        }
        os << ']';
    }

    std::string text() const { return "{" + os_.str() + "}"; }

  private:
    std::ostream &
    field(const std::string &key)
    {
        os_ << (first_ ? "" : ", ") << '"' << key << "\": ";
        first_ = false;
        return os_;
    }

    std::ostringstream os_;
    bool first_ = true;
};

// ----------------------------------------------------------------------
// Modes.
// ----------------------------------------------------------------------

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 0;
    unsigned threads = 1;
    double seconds = 1.0;
    std::string ref;
    std::string traceOut;
};

SweepOptions
productionOptions(unsigned threads)
{
    SweepOptions o;
    o.threads = threads;
    o.tier = TierPolicy::TheoryFirst;
    return o;
}

int
runReference(const Args &a)
{
    const std::int64_t start = nowNs();
    ScenarioGrid grid = buildGrid(a.workload, a.seed);
    for (VectorUnitConfig &cfg : grid.mappings)
        cfg.engine = EngineKind::PerCycle;
    SweepOptions o;
    o.threads = a.threads;
    o.tier = TierPolicy::SimulateAlways;
    DigestSink sink(grid.jobCount());
    SweepEngine(o).runToSink(grid, sink);
    if (sink.seen() != grid.jobCount())
        fail("reference run lost outcomes");
    std::ofstream os(a.ref, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(sink.digests().data()),
             static_cast<std::streamsize>(sink.digests().size()
                                          * sizeof(std::uint64_t)));
    os.flush();
    if (!os)
        fail("cannot write reference " + a.ref);
    JsonOut j;
    j.count("jobs", grid.jobCount());
    j.num("seconds", secondsSince(start));
    std::cout << j.text() << "\n";
    return 0;
}

/** Wall seconds of one checked production sweep. */
double
timedSweep(const SweepEngine &engine, const ScenarioGrid &grid,
           const std::vector<std::uint64_t> &ref,
           std::uint64_t &failed)
{
    DiscardBuf buf;
    std::ostream os(&buf);
    CsvStreamSink csv(os);
    CheckSink check(csv, ref);
    const std::int64_t start = nowNs();
    engine.runToSink(grid, check);
    const double wall = secondsSince(start);
    failed += check.failed();
    return wall;
}

int
runE2e(const Args &a)
{
    // Set-up: grid build, expansion and engine construction.  It is
    // repeated before the first sweep and again after every timed
    // pair, so its median samples the host over the whole run rather
    // than at one instant.
    std::vector<double> setup;
    ScenarioGrid grid;
    std::size_t jobs = 0;
    const auto setUp = [&](int reps) {
        for (int r = 0; r < reps; ++r) {
            const std::int64_t start = nowNs();
            grid = buildGrid(a.workload, a.seed);
            jobs = grid.expand().size();
            SweepEngine one(productionOptions(1));
            SweepEngine all(productionOptions(a.threads));
            setup.push_back(secondsSince(start));
        }
    };
    setUp(11);
    const SweepEngine one(productionOptions(1));
    const SweepEngine all(productionOptions(a.threads));
    const std::vector<std::uint64_t> ref = loadReference(a.ref, jobs);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    // Warm-up (checked, not timed): page faults, allocator pools and
    // thread start-up are paid once before the clock runs.
    timedSweep(one, grid, ref, failed);
    timedSweep(all, grid, ref, failed);
    attempted += 2 * jobs;

    // Alternate the two worker counts so drift in the host's speed
    // reaches both alike; stop before a pair would overrun --seconds.
    std::vector<double> t1;
    std::vector<double> tall;
    const std::int64_t start = nowNs();
    double pair = 0.0;
    while (t1.size() < 3 || secondsSince(start) + pair <= a.seconds) {
        t1.push_back(timedSweep(one, grid, ref, failed));
        tall.push_back(timedSweep(all, grid, ref, failed));
        attempted += 2 * jobs;
        pair = t1.back() + tall.back();
        setUp(5);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    JsonOut j;
    j.count("jobs", jobs);
    j.count("threads", a.threads);
    j.list("setup_s", setup);
    j.list("t1_s", t1);
    j.list("tall_s", tall);
    j.count("attempted", attempted);
    j.count("failed", failed);
    j.count("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));
    std::cout << j.text() << "\n";
    return 0;
}

// ----------------------------------------------------------------------
// Traced per-layer run.
// ----------------------------------------------------------------------

/**
 * Replays each job's accesses through the layers' public functions:
 * VectorAccessUnit::plan per port stream, then the theory tier, and
 * for every access the theory tier rejects a re-run under
 * SimulateAlways plus a ModuleMapping::mapModules pass over the
 * streams that were simulated.  The port streams are planned exactly
 * as the sweep plans them (base stride scaled by the port mix, ports
 * staggered, descending streams started at their top).
 *
 * The theory tier is called the way VectorAccessUnit::execute and
 * executePorts call it under TheoryFirst: the worker cache's
 * TheoryBackend, certified or hinted by the plan, with the sweep's
 * result detail.  execute() accepts that detail only after the map
 * path and fast-path arguments, which this benchmark does not name,
 * and at its default full detail a claim would materialise every
 * delivery the sweep never asks for.  The self-check in job() holds
 * this dispatch to the program's own attribution.
 */
class Replay
{
  public:
    Replay(const ScenarioGrid &grid, Tracer &tracer)
        : grid_(grid), tracer_(tracer),
          planSpan_(tracer.intern("core.plan")),
          claimSpan_(tracer.intern("theory.claim")),
          rejectSpan_(tracer.intern("theory.reject")),
          simSpan_(tracer.intern("memsys.sim")),
          mapSpan_(tracer.intern("mapping.map")),
          jobSpan_(tracer.intern("replay.job"))
    {
    }

    /** Replays job @p sc on @p unit; returns false when the replay
     *  disagrees with the program's own outcome @p o. */
    bool
    job(const Scenario &sc, const VectorAccessUnit &unit,
        const ScenarioOutcome &o)
    {
        ScopedSpan span(tracer_, jobSpan_, sc.index);
        const Workload &wl = grid_.workloads[sc.workloadIndex];
        Cycle latency = 0;
        std::uint64_t claimed = 0;
        std::uint64_t fallback = 0;
        // The sweep keeps a single-port load's deliveries only when
        // an EXECUTE step chains on it (Chain, and Stencil's last
        // tap).
        auto run = [&](const VectorAccessUnit &u, Addr a1,
                       std::uint64_t stride, bool chained = false) {
            const ResultDetail detail =
                chained && sc.ports <= 1
                    ? ResultDetail::SummaryIfUniform
                    : ResultDetail::Summary;
            const bool wasClaimed =
                access(sc, u, a1, stride, detail, latency);
            claimed += wasClaimed ? 1 : 0;
            fallback += wasClaimed ? 0 : 1;
        };
        switch (wl.kind) {
          case WorkloadKind::Single:
            run(unit, sc.a1, sc.stride);
            break;
          case WorkloadKind::Chain:
            run(unit, sc.a1, sc.stride, true);
            break;
          case WorkloadKind::Stencil:
            for (unsigned tap = 0; tap < 3; ++tap)
                run(unit, sc.a1 + Addr{tap} * sc.stride, sc.stride,
                    tap == 2);
            run(unit, sc.a1, sc.stride);
            break;
          case WorkloadKind::Retune: {
            // Two phases (base stride, then twice it); a dynamically
            // tuned mapping re-tunes to each phase's family, clamped
            // so its module field stays inside the address.
            const VectorUnitConfig &cfg = unit.config();
            for (std::uint64_t phase : {sc.stride, sc.stride * 2}) {
                const VectorAccessUnit *u = &unit;
                if (cfg.kind == MemoryKind::DynamicTuned) {
                    const unsigned tune = std::min(
                        Stride(phase).family(), 63u - cfg.m());
                    if (tune != cfg.dynamicTune)
                        u = &units_.retuned(cfg, sc.mappingIndex, tune);
                }
                for (unsigned r = 0; r < wl.retunePeriod; ++r)
                    run(*u, sc.a1, phase);
            }
            break;
          }
        }
        return claimed == o.theoryClaimed && fallback == o.theoryFallback
               && latency + o.retuneCycles == o.latency;
    }

    /** Plan, simulation and mapping counts of the replayed jobs. */
    std::map<std::string, std::uint64_t> totals;
    std::uint64_t simMismatches = 0;

  private:
    /** One access; adds its latency to @p latency and returns
     *  whether the theory tier claimed it. */
    bool
    access(const Scenario &sc, const VectorAccessUnit &unit, Addr a1,
           std::uint64_t baseStride, ResultDetail detail,
           Cycle &latency)
    {
        const PortMix &mix = grid_.portMixes[sc.portMixIndex];
        std::vector<std::vector<Request>> streams;
        std::vector<AccessPlan> plans;
        for (unsigned p = 0; p < sc.ports; ++p) {
            const std::int64_t mult = mix.multiplierFor(p);
            const std::int64_t stride =
                static_cast<std::int64_t>(
                    baseStride
                    * static_cast<std::uint64_t>(mult < 0 ? -mult
                                                          : mult))
                * (mult < 0 ? -1 : 1);
            Addr start = a1 + Addr{p} * grid_.portStagger;
            if (stride < 0)
                start += (sc.length - 1)
                         * static_cast<std::uint64_t>(-stride);
            std::vector<Request> seed =
                arena_.acquireRequests(sc.length);
            {
                ScopedSpan s(tracer_, planSpan_, sc.index);
                plans.push_back(unit.plan(start, stride, sc.length,
                                          std::move(seed),
                                          /*explain=*/false));
            }
            totals["core.plan_calls"] += 1;
            totals["core.plan_elems"] += sc.length;
        }

        if (sc.ports > 1)
            for (AccessPlan &p : plans)
                streams.push_back(std::move(p.stream));
        // Opened as a claim; renamed once the tier has decided.
        Cycle theoryLatency = 0;
        tracer_.begin(claimSpan_, sc.index);
        TheoryBackend &tb = cache_.theoryBackendFor(
            unit.config().engine, unit.memConfig(), unit.mapping());
        if (sc.ports <= 1) {
            AccessResult r =
                plans[0].expectConflictFree
                    ? tb.runSingleCertified(plans[0].stream, &arena_,
                                            detail)
                    : tb.runSingleHinted(false, plans[0].stream,
                                         &arena_, detail);
            theoryLatency = r.latency;
            arena_.release(std::move(r.deliveries));
        } else {
            MultiPortResult r = tb.runPorts(streams, &arena_, detail);
            theoryLatency = r.makespan;
            for (AccessResult &port : r.ports)
                arena_.release(std::move(port.deliveries));
        }
        const std::uint32_t tierSpan = tracer_.end();
        const bool claimed = tb.lastClaimed();
        if (!claimed)
            tracer_.rename(tierSpan, rejectSpan_);
        latency += theoryLatency;

        if (!claimed) {
            Cycle simLatency = 0;
            {
                ScopedSpan s(tracer_, simSpan_, sc.index);
                if (sc.ports <= 1) {
                    AccessResult r = unit.execute(
                        plans[0], &simArena_, &simCache_,
                        TierPolicy::SimulateAlways);
                    simLatency = r.latency;
                    simArena_.release(std::move(r.deliveries));
                } else {
                    MultiPortResult r = unit.executePorts(
                        streams, &simArena_, &simCache_,
                        TierPolicy::SimulateAlways);
                    simLatency = r.makespan;
                    for (AccessResult &port : r.ports)
                        simArena_.release(std::move(port.deliveries));
                }
            }
            if (simLatency != theoryLatency)
                ++simMismatches;
            totals["memsys.sim_accesses"] += 1;
            totals["memsys.sim_cycles"] += simLatency;

            addrs_.clear();
            if (sc.ports <= 1) {
                for (const Request &r : plans[0].stream)
                    addrs_.push_back(r.addr);
            } else {
                for (const auto &s : streams)
                    for (const Request &r : s)
                        addrs_.push_back(r.addr);
            }
            mods_.resize(addrs_.size());
            {
                ScopedSpan s(tracer_, mapSpan_, sc.index);
                unit.mapping().mapModules(addrs_.data(), addrs_.size(),
                                          mods_.data());
            }
            totals["mapping.elems"] += addrs_.size();
            if (isLinear(unit.mapping()))
                totals["mapping.linear_elems"] += addrs_.size();
        }

        for (AccessPlan &p : plans)
            arena_.releaseRequests(std::move(p.stream));
        for (auto &s : streams)
            arena_.releaseRequests(std::move(s));
        return claimed;
    }

    bool
    isLinear(const ModuleMapping &m)
    {
        for (const auto &[map, linear] : linear_)
            if (map == &m)
                return linear;
        std::vector<std::uint64_t> rows;
        linear_.emplace_back(&m, m.gf2Rows(rows));
        return linear_.back().second;
    }

    const ScenarioGrid &grid_;
    Tracer &tracer_;
    std::uint32_t planSpan_, claimSpan_, rejectSpan_,
        simSpan_, mapSpan_, jobSpan_;

    // The production tier's per-worker state, and a separate cache
    // and arena for the SimulateAlways re-runs so they never share
    // fast-path state with the theory tier's fallback backends.
    DeliveryArena arena_;
    BackendCache cache_;
    WorkloadUnits units_;
    DeliveryArena simArena_;
    BackendCache simCache_;

    std::vector<Addr> addrs_;
    std::vector<ModuleId> mods_;
    std::vector<std::pair<const ModuleMapping *, bool>> linear_;
};

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

/** Nearest-rank percentile of @p v (sorted in place), in ns. */
double
percentileNs(std::vector<std::int64_t> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return static_cast<double>(v[rank - 1]);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int
runTrace(const Args &a)
{
    const ScenarioGrid grid = buildGrid(a.workload, a.seed);
    const std::size_t jobs = grid.jobCount();
    const std::vector<std::uint64_t> ref = loadReference(a.ref, jobs);
    const SweepEngine engine(productionOptions(1));

    std::vector<std::unique_ptr<VectorAccessUnit>> units;
    for (const VectorUnitConfig &cfg : grid.mappings)
        units.push_back(std::make_unique<VectorAccessUnit>(cfg));

    Tracer tracer;
    const std::uint32_t expandSpan = tracer.intern("sim.expand");
    const std::uint32_t runSpan = tracer.intern("sim.run_to_sink");
    const std::uint32_t jobSpan = tracer.intern("sim.job");

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t selfCheckFailures = 0;
    std::map<std::string, std::vector<double>> times;
    // Counts of each pass; they must repeat exactly.
    std::vector<std::map<std::string, std::uint64_t>> passCounts;

    // Warm-up sweep (checked, not timed), so the first pass's
    // untraced sweep does not pay the process's cold start.
    {
        DiscardBuf buf;
        std::ostream os(&buf);
        CsvStreamSink csv(os);
        CheckSink check(csv, ref);
        engine.runToSink(grid, check);
        failed += check.failed();
        attempted += jobs;
    }

    const std::int64_t start = nowNs();
    double pass = 0.0;
    do {
        const std::int64_t passStart = nowNs();
        tracer.clear();
        std::map<std::string, std::uint64_t> c;

        std::vector<Scenario> scenarios;
        {
            ScopedSpan s(tracer, expandSpan, 0);
            scenarios = grid.expand();
        }

        // Single-worker production sweeps, untraced and traced in
        // the order U T T U so drift over the pass cancels out of the
        // tracing overhead.
        double untraced = 0.0;
        SweepRunStats stats;
        const auto untracedSweep = [&] {
            DiscardBuf buf;
            std::ostream os(&buf);
            CsvStreamSink csv(os);
            CheckSink check(csv, ref);
            const std::int64_t t0 = nowNs();
            engine.runToSink(grid, check, &stats);
            untraced += secondsSince(t0);
            failed += check.failed();
        };
        const auto tracedSweep = [&] {
            DiscardBuf buf;
            std::ostream os(&buf);
            CsvStreamSink csv(os);
            CheckSink check(csv, ref, &tracer);
            {
                ScopedSpan s(tracer, runSpan, 0);
                engine.runToSink(grid, check, &stats);
            }
            failed += check.failed();
            c["sim.sink_bytes"] = buf.bytes();
        };
        untracedSweep();
        tracedSweep();
        tracedSweep();
        untracedSweep();
        attempted += 4 * jobs;

        // Per-job production calls, with the sweep's per-worker state.
        std::vector<ScenarioOutcome> outcomes;
        outcomes.reserve(jobs);
        {
            DeliveryArena arena;
            BackendCache cache;
            WorkloadUnits workloads;
            for (const Scenario &sc : scenarios) {
                ScopedSpan s(tracer, jobSpan, sc.index);
                outcomes.push_back(SweepEngine::runScenario(
                    grid, sc, *units[sc.mappingIndex], &arena, &cache,
                    &workloads, TierPolicy::TheoryFirst));
            }
        }
        for (const ScenarioOutcome &o : outcomes)
            if (o.index >= ref.size() || digest(o) != ref[o.index])
                ++failed;
        attempted += jobs;

        // Per-access replay, checked against those outcomes.
        Replay replay(grid, tracer);
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            if (!replay.job(scenarios[i], *units[scenarios[i].mappingIndex],
                            outcomes[i]))
                ++selfCheckFailures;
        }
        selfCheckFailures += replay.simMismatches;
        for (const auto &[k, v] : replay.totals)
            c[k] = v;

        // Attribution and model counts from the program's outcomes.
        for (const ScenarioOutcome &o : outcomes) {
            c["theory.claimed"] += o.theoryClaimed;
            c["theory.fallback"] += o.theoryFallback;
            c["model.cycles"] += o.latency;
            c["model.conflict_free_jobs"] += o.conflictFree ? 1 : 0;
            switch (o.fallbackReason) {
              case FallbackReason::None:
                break;
              case FallbackReason::Conflicted:
                ++c["theory.fallback.conflicted"];
                break;
              case FallbackReason::MultiPort:
                ++c["theory.fallback.multiport"];
                break;
              case FallbackReason::Unproven:
                ++c["theory.fallback.unproven"];
                break;
              case FallbackReason::Dynamic:
                ++c["theory.fallback.dynamic"];
                break;
            }
        }
        c["sim.jobs"] = jobs;
        c["memsys.collapse_hits"] = stats.collapseHits;
        c["memsys.memo_hits"] = stats.memoHits;
        c["memsys.memo_lookups"] = stats.memoHits + stats.memoMisses;
        c["memsys.backend_cache_hits"] = stats.backendCacheHits;
        c["memsys.backend_cache_lookups"] =
            stats.backendCacheHits + stats.backendCacheMisses;
        c["memsys.arena_reuses"] = stats.arenaReuses;
        c["memsys.arena_acquires"] = stats.arenaAcquires;
        passCounts.push_back(c);

        // Times of this pass.
        const auto self = [&](const char *n) {
            return tracer.totals(n).selfSeconds;
        };
        // Two traced sweeps ran; sink and sweep times are per sweep.
        std::vector<std::int64_t> jobNs = tracer.durations("sim.job");
        const double jobS = tracer.totals("sim.job").seconds;
        const double sinkS = tracer.totals("sim.sink").seconds / 2;
        const double traced =
            tracer.totals("sim.run_to_sink").seconds / 2;
        times["sim.expand_s"].push_back(self("sim.expand"));
        times["sim.job_s"].push_back(jobS);
        times["sim.job_p50_us"].push_back(percentileNs(jobNs, 0.50)
                                          * 1e-3);
        times["sim.job_p99_us"].push_back(percentileNs(jobNs, 0.99)
                                          * 1e-3);
        times["sim.orchestration_s"].push_back(traced - sinkS - jobS);
        times["sim.sink_s"].push_back(sinkS);
        times["core.plan_s"].push_back(self("core.plan"));
        times["theory.claim_s"].push_back(self("theory.claim"));
        const double simS = self("memsys.sim");
        times["theory.reject_s"].push_back(self("theory.reject") - simS);
        times["memsys.sim_s"].push_back(simS);
        times["mapping.map_s"].push_back(self("mapping.map"));
        times["trace.overhead_frac"].push_back(traced / (untraced / 2)
                                               - 1.0);
        pass = secondsSince(passStart);
    } while (secondsSince(start) + pass <= a.seconds);

    bool countsRepeat = true;
    for (const auto &p : passCounts)
        countsRepeat = countsRepeat && p == passCounts.front();

    if (!a.traceOut.empty() && !tracer.write(a.traceOut))
        fail("cannot write trace " + a.traceOut);

    const auto &c = passCounts.front();
    const auto get = [&](const std::string &k) {
        const auto it = c.find(k);
        return it == c.end() ? std::uint64_t{0} : it->second;
    };
    JsonOut j;
    j.count("jobs", jobs);
    j.count("passes", passCounts.size());
    j.count("attempted", attempted);
    j.count("failed", failed);
    j.count("self_check_failures", selfCheckFailures);
    j.count("counts_repeat", countsRepeat ? 1 : 0);
    j.count("spans", tracer.size());
    for (const auto &[k, v] : times)
        j.num(k, median(v));
    for (const char *k :
         {"sim.jobs", "sim.sink_bytes", "core.plan_calls",
          "core.plan_elems", "theory.claimed", "theory.fallback",
          "theory.fallback.conflicted", "theory.fallback.multiport",
          "theory.fallback.unproven", "theory.fallback.dynamic",
          "memsys.sim_accesses", "memsys.sim_cycles",
          "memsys.collapse_hits", "mapping.elems", "model.cycles",
          "model.conflict_free_jobs"})
        j.count(k, get(k));
    j.num("theory.claim_ratio",
          ratio(get("theory.claimed"),
                get("theory.claimed") + get("theory.fallback")));
    j.num("memsys.ns_per_sim_cycle",
          median(times["memsys.sim_s"]) * 1e9
              / static_cast<double>(std::max<std::uint64_t>(
                  1, get("memsys.sim_cycles"))));
    j.num("memsys.memo_hit_ratio",
          ratio(get("memsys.memo_hits"), get("memsys.memo_lookups")));
    j.num("memsys.backend_cache_hit_ratio",
          ratio(get("memsys.backend_cache_hits"),
                get("memsys.backend_cache_lookups")));
    j.num("memsys.arena_reuse_ratio",
          ratio(get("memsys.arena_reuses"),
                get("memsys.arena_acquires")));
    j.num("mapping.linear_frac",
          ratio(get("mapping.linear_elems"), get("mapping.elems")));
    std::cout << j.text() << "\n";
    return 0;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    if (argc < 2)
        fail("usage: cfva_sweepbench reference|e2e|trace --workload W "
             "--seed N --ref PATH [--threads T] [--seconds S] "
             "[--trace-out PATH]");
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fail(flag + " needs a value");
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v, nullptr, 0);
            else if (flag == "--threads")
                a.threads = static_cast<unsigned>(std::stoul(v));
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--ref")
                a.ref = v;
            else if (flag == "--trace-out")
                a.traceOut = v;
            else
                fail("unknown flag " + flag);
        } catch (const std::logic_error &) {
            fail("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload.empty() || a.ref.empty())
        fail("--workload and --ref are required");
    if (a.threads == 0)
        fail("--threads must be at least 1");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    fail("refusing to run: built without optimisation (build type '"
         CFVA_BENCH_BUILD_TYPE "'); configure with "
         "-DCMAKE_BUILD_TYPE=Release");
#endif
    const Args a = parseArgs(argc, argv);
    if (a.mode == "reference")
        return runReference(a);
    if (a.mode == "e2e")
        return runE2e(a);
    if (a.mode == "trace")
        return runTrace(a);
    fail("unknown mode " + a.mode);
}
