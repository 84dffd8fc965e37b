#include "theory/theory_backend.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "theory/theory.h"

namespace cfva {

TheoryBackend::TheoryBackend(const MemConfig &cfg,
                             const ModuleMapping &map)
    : cfg_(cfg), fallback_(cfg, map)
{
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

AccessResult
TheoryBackend::runSingleHinted(bool claimHint,
                               const std::vector<Request> &stream,
                               DeliveryArena *arena,
                               ResultDetail detail)
{
    // Premap once, on the simulator (bit-sliced when the mapping
    // exposes GF(2) rows); the proof, the memo key, the collapse
    // and — after a rejection — the simulation all reuse it instead
    // of each re-deriving every module number.
    const PortSeq seq = fallback_.premap({&stream, 1})[0];
    AccessResult out;
    const auto claim = [&] {
        lastClaimed_ = true;
        lastReason_ = FallbackReason::None;
        stats_.add(true);
        return out;
    };
    // An empty stream's schedule is vacuous; claim it outright so
    // the taxonomy never blames a zero-length access on the
    // collapse.
    if (stream.empty()) {
        summarizeUniform(0, out);
        return claim();
    }
    if (claimHint
        && tryClaim(stream, seq.mods, arena, out,
                    detail == ResultDetail::Full))
        return claim();
    const MemoOutcome *hit = lookup(&seq, 1);
    if (solve(hit, stream, seq, arena, out, detail))
        return claim();
    lastClaimed_ = false;
    lastReason_ = claimHint ? FallbackReason::Unproven
                            : FallbackReason::Conflicted;
    stats_.add(false);
    fallBack({&stream, 1}, {&seq, 1}, hit, arena, detail, &out);
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
        synthesizeUniform(stream,
                          fallback_.premap({&stream, 1})[0].mods,
                          arena, out);
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

const MemoOutcome *
TheoryBackend::lookup(const PortSeq *seqs, std::size_t count)
{
    const MemoOutcome *hit = memo_.lookup(seqs, count, cfg_.modules());
    if (hit)
        ++fastPath_.memoHits;
    else if (memo_.keyed())
        ++fastPath_.memoMisses;
    return hit;
}

bool
TheoryBackend::solve(const MemoOutcome *hit,
                     const std::vector<Request> &stream,
                     const PortSeq &seq, DeliveryArena *arena,
                     AccessResult &out, ResultDetail detail)
{
    // Whether the collapse closes a stream is a function of its
    // rank-canonical key, so a recorded verdict stands for this
    // stream too.  A collapse (periodic) claim is non-uniform, so
    // SummaryIfUniform materializes it: its chained cost is not
    // closed-form for the caller.
    if (hit) {
        if (hit->claimed)
            replayPort(hit->ports.front(), 0, stream, seq.mods, arena,
                       detail, out);
        return hit->claimed;
    }
    // No verdict yet: establish the transient on the simulator's
    // loop and extrapolate.  Failure (aperiodic sequence, too short
    // for a recurrence, or the snapshot budget ran out) leaves
    // `out` untouched.
    Cycle steppedCycles = 0;
    if (!collapser_.tryRun(fallback_, seq.length, seq.mods,
                           &steppedCycles)) {
        fallback_.releaseTraces();
        return false;
    }
    ++fastPath_.collapseHits;
    fastPath_.collapsePrefixCycles += steppedCycles;
    replayPort(fallback_.trace(0), 0, stream, seq.mods, arena, detail,
               out);
    record(1, true, ResultDetail::Full);
    return true;
}

bool
TheoryBackend::portsDisjoint(std::span<const PortSeq> seqs)
{
    if (owner_.size() < cfg_.modules()) {
        owner_.resize(cfg_.modules(), 0);
        ownerEpoch_.resize(cfg_.modules(), 0);
    }
    ++epoch_;
    for (unsigned p = 0; p < seqs.size(); ++p) {
        for (std::size_t i = 0; i < seqs[p].length; ++i) {
            const ModuleId mod = seqs[p].mods[i];
            if (ownerEpoch_[mod] != epoch_) {
                ownerEpoch_[mod] = epoch_;
                owner_[mod] = p;
            } else if (owner_[mod] != p) {
                return false;
            }
        }
    }
    return true;
}

bool
TheoryBackend::tryClaimPorts(
    const std::vector<std::vector<Request>> &streams,
    std::span<const PortSeq> seqs, DeliveryArena *arena,
    MultiPortResult &out, ResultDetail detail)
{
    if (!portsDisjoint(seqs))
        return false;

    // Disjoint ports never interact: every port issues one request
    // per cycle from cycle 0, arbitration ties are only broken
    // between requests for the SAME module, and each port has a
    // private return bus that delivers only its own elements — so
    // each port's trace is bit-identical to its single-port trace.
    // Answer each port analytically; any port neither the proof
    // nor the collapse can close defeats the whole claim.
    const std::size_t P = streams.size();
    out.ports.clear();
    out.ports.resize(P);
    Cycle lastDelivery = 0;
    bool any = false;
    for (std::size_t p = 0; p < P; ++p) {
        AccessResult &r = out.ports[p];
        if (streams[p].empty()) {
            summarizeUniform(0, r);
            continue;
        }
        if (!tryClaim(streams[p], seqs[p].mods, arena, r,
                      detail == ResultDetail::Full)
            && !solve(lookup(&seqs[p], 1), streams[p], seqs[p], arena,
                      r, detail)) {
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
        any = true;
        lastDelivery = std::max(lastDelivery, r.lastDelivery);
    }
    // The same fold PerCycleMultiPort's loop ends with: the makespan
    // is exclusive of the last delivery cycle, 0 when no element was
    // delivered, and each port's conflict-free flag was already
    // judged against its own single-stream floor.
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
    const std::span<const PortSeq> seqs = fallback_.premap(streams);
    const std::size_t P = streams.size();

    MultiPortResult out;
    if (tryClaimPorts(streams, seqs, arena, out, detail)) {
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
    out.ports.resize(P);
    out.makespan = fallBack(streams, seqs, lookup(seqs.data(), P),
                            arena, detail, out.ports.data());
    return out;
}

Cycle
TheoryBackend::fallBack(std::span<const std::vector<Request>> streams,
                        std::span<const PortSeq> seqs,
                        const MemoOutcome *hit, DeliveryArena *arena,
                        ResultDetail detail, AccessResult *out)
{
    const std::size_t P = seqs.size();
    if (hit
        && (detail == ResultDetail::Summary || !hit->summaryOnly)) {
        ++fastPath_.fallbackMemoHits;
        for (std::size_t p = 0; p < P; ++p)
            replayPort(hit->ports[p], p, streams[p], seqs[p].mods,
                       arena, detail, out[p]);
        return hit->makespan;
    }
    if (memo_.keyed())
        ++fastPath_.fallbackMemoMisses;
    fallback_.simulate(seqs);
    for (std::size_t p = 0; p < P; ++p)
        replayPort(fallback_.trace(p), p, streams[p], seqs[p].mods,
                   arena, detail, out[p]);
    const Cycle makespan = fallback_.makespan();
    record(P, false, detail);
    return makespan;
}

void
TheoryBackend::record(std::size_t count, bool claimed,
                      ResultDetail detail)
{
    if (memo_.keyed()) {
        MemoOutcome o;
        o.makespan = fallback_.makespan();
        o.claimed = claimed;
        o.summaryOnly = detail == ResultDetail::Summary;
        o.ports.resize(count);
        for (std::size_t p = 0; p < count; ++p) {
            if (o.summaryOnly)
                o.ports[p].summary = fallback_.trace(p).summary;
            else
                o.ports[p] = fallback_.takeTrace(p);
        }
        memo_.store(std::move(o));
    }
    fallback_.releaseTraces();
}

void
TheoryBackend::replayPort(const PortTrace &trace, std::size_t port,
                          const std::vector<Request> &stream,
                          const ModuleId *mods, DeliveryArena *arena,
                          ResultDetail detail, AccessResult &out)
{
    if (detail == ResultDetail::Summary)
        applyEmitSummary(trace.summary, out);
    else
        materializeEmits(trace, stream, mods, arena, out,
                         static_cast<unsigned>(port));
}

} // namespace cfva
