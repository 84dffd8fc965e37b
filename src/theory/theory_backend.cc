#include "theory/theory_backend.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "theory/theory.h"

namespace cfva {

namespace {

/** The aggregates of a simulated port result. */
EmitSummary
summarizeResult(const AccessResult &result)
{
    EmitSummary s;
    s.firstIssue = result.firstIssue;
    s.lastDelivery = result.lastDelivery;
    s.stallCycles = result.stallCycles;
    s.latency = result.latency;
    s.conflictFree = result.conflictFree;
    return s;
}

/**
 * Appends a simulated port's deliveries to @p out in position form.
 * A port issues its stream in order, so a delivery's stream
 * position is the rank of its issue cycle among the port's
 * deliveries.
 */
void
appendEmits(const AccessResult &result, std::vector<Emit> &out)
{
    std::vector<Cycle> issued;
    issued.reserve(result.deliveries.size());
    for (const Delivery &d : result.deliveries)
        issued.push_back(d.issued);
    std::sort(issued.begin(), issued.end());
    for (const Delivery &d : result.deliveries) {
        Emit e;
        e.pos = static_cast<std::uint32_t>(
            std::lower_bound(issued.begin(), issued.end(), d.issued)
            - issued.begin());
        e.issued = d.issued;
        e.arrived = d.arrived;
        e.serviceStart = d.serviceStart;
        e.ready = d.ready;
        e.delivered = d.delivered;
        out.push_back(e);
    }
}

} // namespace

TheoryBackend::TheoryBackend(const MemConfig &cfg,
                             const ModuleMapping &map)
    : cfg_(cfg), map_(map), slicer_(map), fallback_(cfg, map)
{
    cfg.validate();
}

void
TheoryBackend::premap(const std::vector<Request> &stream,
                      std::vector<ModuleId> &mods)
{
    mods.resize(stream.size());
    slicer_.mapWith(
        [&stream](std::size_t i) { return stream[i].addr; },
        stream.size(), mods.data());
}

void
TheoryBackend::summarizeUniform(std::size_t length,
                                AccessResult &out)
{
    const Cycle T = cfg_.serviceCycles();
    const Cycle L = static_cast<Cycle>(length);
    out.firstIssue = 0;
    out.lastDelivery = length == 0 ? 0 : L + T;
    out.latency = length == 0 ? 0 : theory::minimumLatency(L, T);
    out.stallCycles = 0;
    out.conflictFree = true;
}

void
TheoryBackend::synthesizeUniform(const std::vector<Request> &stream,
                                 const ModuleId *mods,
                                 DeliveryArena *arena,
                                 AccessResult &out)
{
    const Cycle T = cfg_.serviceCycles();
    const std::size_t L = stream.size();
    out.deliveries =
        arena ? arena->acquire(L) : std::vector<Delivery>{};
    out.deliveries.reserve(L);
    for (std::size_t i = 0; i < L; ++i) {
        Delivery d;
        d.addr = stream[i].addr;
        d.element = stream[i].element;
        d.module = mods[i];
        d.issued = static_cast<Cycle>(i);
        d.arrived = d.issued + 1;
        d.serviceStart = d.arrived;
        d.ready = d.serviceStart + T;
        d.delivered = d.ready;
        out.deliveries.push_back(d);
    }
    summarizeUniform(L, out);
}

bool
TheoryBackend::tryClaim(const std::vector<Request> &stream,
                        const ModuleId *mods, DeliveryArena *arena,
                        AccessResult &out, bool materialize)
{
    const Cycle T = cfg_.serviceCycles();
    const std::size_t L = stream.size();

    // The proof: under the simulator's timing contract the request
    // issued at cycle i reaches its module at i+1.  If that module
    // is still busy (nextFree > i+1) the element queues, the
    // one-request-per-cycle cadence is broken, and the closed-form
    // schedule no longer holds — reject and let the solver (or the
    // simulator) take over.  If every request finds its module free on
    // arrival, service starts the same cycle it arrives, the module
    // is busy for T cycles, and ready times i+1+T are strictly
    // increasing, so the return bus delivers each element the cycle
    // it retires and never back-pressures the modules.  Input
    // buffers never fill either: an element bound for the same
    // module starts service (retire + start precede issue in the
    // cycle order) before the next one is accepted.  The schedule
    // below is therefore exact.
    nextFree_.assign(cfg_.modules(), 0);
    for (std::size_t i = 0; i < L; ++i) {
        const ModuleId mod = mods[i];
        cfva_assert(mod < cfg_.modules(),
                    "mapping produced out-of-range module");
        const Cycle arrive = static_cast<Cycle>(i) + 1;
        if (nextFree_[mod] > arrive)
            return false;
        nextFree_[mod] = arrive + T;
    }

    if (materialize)
        synthesizeUniform(stream, mods, arena, out);
    else
        summarizeUniform(L, out);
    return true;
}

bool
TheoryBackend::answerMapped(bool attemptProof,
                            const std::vector<Request> &stream,
                            const ModuleId *mods,
                            DeliveryArena *arena, AccessResult &out,
                            ResultDetail detail)
{
    // An empty stream's schedule is vacuous; claim it outright so
    // the taxonomy never blames a zero-length access on the solver.
    if (stream.empty()) {
        summarizeUniform(0, out);
        return true;
    }
    if (attemptProof
        && tryClaim(stream, mods, arena, out,
                    detail == ResultDetail::Full))
        return true;
    // A solver (periodic) claim is non-uniform, so SummaryIfUniform
    // materializes it: its chained cost is not closed-form for the
    // caller.
    return solver_.solve(cfg_, stream, mods, arena, out,
                         detail != ResultDetail::Summary);
}

AccessResult
TheoryBackend::runSingleHinted(bool claimHint,
                               const std::vector<Request> &stream,
                               DeliveryArena *arena,
                               ResultDetail detail)
{
    // Premap once (bit-sliced when the mapping exposes GF(2) rows);
    // the proof, the solver, and — after a rejection — the
    // simulation fallback all reuse it instead of each re-deriving
    // every module number.
    premap(stream, mods_);
    AccessResult out;
    if (answerMapped(claimHint, stream, mods_.data(), arena, out,
                     detail)) {
        lastClaimed_ = true;
        lastReason_ = FallbackReason::None;
        stats_.add(true);
        return out;
    }
    lastClaimed_ = false;
    lastReason_ = claimHint ? FallbackReason::Unproven
                            : FallbackReason::Conflicted;
    stats_.add(false);
    const PortSeq seq{mods_.data(), stream.size()};
    if (fallbackHit(&seq, 1, detail)) {
        replayPort(0, stream, mods_.data(), arena, detail, out);
        return out;
    }
    // Empty streams were claimed above, so this one delivers.
    out = fallback_.runSingleMapped(stream, mods_.data(), arena);
    fallbackStore(&out, 1, out.lastDelivery + 1, detail);
    return out;
}

AccessResult
TheoryBackend::runSingleCertified(const std::vector<Request> &stream,
                                  DeliveryArena *arena,
                                  ResultDetail detail)
{
    AccessResult out = claimCertified(stream.size());
    if (detail == ResultDetail::Full) {
        // Full detail still needs each delivery's module number.
        premap(stream, mods_);
        synthesizeUniform(stream, mods_.data(), arena, out);
    }
    return out;
}

AccessResult
TheoryBackend::claimCertified(std::uint64_t length)
{
    lastClaimed_ = true;
    lastReason_ = FallbackReason::None;
    stats_.add(true);
    AccessResult out;
    summarizeUniform(length, out);
    return out;
}

AccessResult
TheoryBackend::runSingle(const std::vector<Request> &stream,
                         DeliveryArena *arena)
{
    return runSingleHinted(true, stream, arena);
}

bool
TheoryBackend::tryClaimPorts(
    const std::vector<std::vector<Request>> &streams,
    DeliveryArena *arena, MultiPortResult &out, ResultDetail detail)
{
    const std::size_t P = streams.size();
    solver_.beginPortCheck(cfg_.modules());
    for (std::size_t p = 0; p < P; ++p) {
        if (!solver_.portDisjoint(streams[p].size(),
                                  portMods_[p].data(),
                                  static_cast<unsigned>(p)))
            return false;
    }

    // Disjoint ports never interact: every port issues one request
    // per cycle from cycle 0, arbitration ties are only broken
    // between requests for the SAME module, and each port has a
    // private return bus that delivers only its own elements — so
    // each port's trace is bit-identical to its single-port trace.
    // Answer each port analytically; any port neither tier can
    // close defeats the whole claim.
    out.ports.clear();
    out.ports.resize(P);
    Cycle lastDelivery = 0;
    bool any = false;
    for (std::size_t p = 0; p < P; ++p) {
        AccessResult &r = out.ports[p];
        if (!answerMapped(true, streams[p], portMods_[p].data(),
                          arena, r, detail)) {
            if (arena) {
                for (std::size_t q = 0; q < p; ++q)
                    arena->release(
                        std::move(out.ports[q].deliveries));
            }
            out.ports.clear();
            return false;
        }
        for (Delivery &d : r.deliveries)
            d.port = static_cast<unsigned>(p);
        if (streams[p].size() > 0) {
            any = true;
            lastDelivery = std::max(lastDelivery, r.lastDelivery);
        }
    }
    // Same assembly detail::assemblePortResults performs: the
    // makespan is exclusive of the last delivery cycle, 0 when no
    // element was delivered, and each port's conflict-free flag was
    // already judged against its own single-stream floor.
    out.makespan = any ? lastDelivery + 1 : 0;
    return true;
}

MultiPortResult
TheoryBackend::runPorts(
    const std::vector<std::vector<Request>> &streams,
    DeliveryArena *arena, ResultDetail detail)
{
    cfva_assert(!streams.empty(), "need at least one port");
    if (streams.size() == 1) {
        MultiPortResult out;
        out.ports.push_back(
            runSingleHinted(true, streams[0], arena, detail));
        // From the stream, not the deliveries: a summary answer
        // carries none.
        out.makespan = streams[0].empty()
                           ? 0
                           : out.ports[0].lastDelivery + 1;
        return out;
    }

    // Premap every port once: the disjointness proof, the fallback
    // memo key, and the simulator all read these sequences.
    detail::premapPorts(slicer_, streams, portMods_);
    const std::size_t P = streams.size();

    MultiPortResult out;
    if (tryClaimPorts(streams, arena, out, detail)) {
        lastClaimed_ = true;
        lastReason_ = FallbackReason::None;
        stats_.add(true);
        return out;
    }
    // Ports sharing modules interleave on them; that schedule is
    // not single-port-decomposable, so it simulates.
    lastClaimed_ = false;
    lastReason_ = FallbackReason::MultiPort;
    stats_.add(false);
    portSeqs_.resize(P);
    for (std::size_t p = 0; p < P; ++p)
        portSeqs_[p] = {portMods_[p].data(), streams[p].size()};
    if (fallbackHit(portSeqs_.data(), P, detail)) {
        out.ports.resize(P);
        for (std::size_t p = 0; p < P; ++p)
            replayPort(p, streams[p], portMods_[p].data(), arena,
                       detail, out.ports[p]);
        out.makespan = fallbackMemo_.cached().makespan;
        return out;
    }
    out = fallback_.runMapped(streams, portMods_, arena);
    fallbackStore(out.ports.data(), P, out.makespan, detail);
    return out;
}

bool
TheoryBackend::fallbackHit(const PortSeq *seqs, std::size_t count,
                           ResultDetail detail)
{
    const bool hit =
        fallbackMemo_.lookup(seqs, count, cfg_.modules())
        && (detail == ResultDetail::Summary
            || !fallbackMemo_.cached().summaryOnly);
    if (hit)
        ++fallbackMemoHits_;
    else if (fallbackMemo_.keyed())
        ++fallbackMemoMisses_;
    return hit;
}

void
TheoryBackend::fallbackStore(const AccessResult *ports,
                             std::size_t count, Cycle makespan,
                             ResultDetail detail)
{
    if (!fallbackMemo_.keyed())
        return;
    MemoOutcome o;
    o.makespan = makespan;
    o.summaryOnly = detail == ResultDetail::Summary;
    o.ports.resize(count);
    for (std::size_t p = 0; p < count; ++p) {
        o.ports[p].summary = summarizeResult(ports[p]);
        if (!o.summaryOnly)
            appendEmits(ports[p], o.ports[p].emits);
    }
    fallbackMemo_.store(std::move(o));
}

void
TheoryBackend::replayPort(std::size_t port,
                          const std::vector<Request> &stream,
                          const ModuleId *mods, DeliveryArena *arena,
                          ResultDetail detail, AccessResult &out)
{
    const MemoPort &hit = fallbackMemo_.cached().ports[port];
    if (detail == ResultDetail::Summary) {
        applyEmitSummary(hit.summary, out);
        return;
    }
    out.deliveries =
        arena ? arena->acquire(stream.size()) : std::vector<Delivery>{};
    out.deliveries.reserve(stream.size());
    materializeEmits(hit.summary, hit.emits, stream, mods, out,
                     static_cast<unsigned>(port));
}

FastPathStats
TheoryBackend::fastPathStats() const
{
    FastPathStats s = solver_.stats();
    s.fallbackMemoHits = fallbackMemoHits_;
    s.fallbackMemoMisses = fallbackMemoMisses_;
    return s;
}

MultiPortResult
TheoryBackend::run(const std::vector<std::vector<Request>> &streams,
                   DeliveryArena *arena)
{
    return runPorts(streams, arena, ResultDetail::Full);
}

} // namespace cfva
