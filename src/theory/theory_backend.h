/**
 * @file
 * TheoryBackend: the analytic fast path of the tiered evaluator.
 *
 * The paper's whole argument is that conflict behaviour is
 * *analyzable* in closed form: inside a window the exact outcome of
 * an access is known without simulating a cycle (Theorems 1 and 3 —
 * latency = theory::minimumLatency(L, T), zero stalls, one delivery
 * per cycle in issue order), and outside it the conflict pattern is
 * exactly periodic, so the steady-state schedule is closed-form too.
 * This backend turns both halves into an executable tier:
 *
 *  - Conflict-free claims: for planner-certified streams
 *    (AccessPlan::expectConflictFree — the paper's window theorems)
 *    the uniform schedule is claimed directly, O(1) per access under
 *    ResultDetail::Summary; for uncertified streams a one-pass O(L)
 *    proof over per-module next-free times re-establishes it.
 *    Either way the exact AccessResult the per-cycle simulator would
 *    produce is synthesized from the timing contract (request issued
 *    at cycle i arrives at i+1, starts service immediately, retires
 *    and crosses the return bus at i+1+T).
 *  - Conflicted claims: the steady-state collapser
 *    (memsys/steady_state.h) steps the O(period) transient on this
 *    backend's own PerCycleMultiPort loop and extrapolates the
 *    periodic steady state.
 *  - Multi-port claims: when the P > 1 port streams are provably
 *    disjoint across modules, the ports never interact and the
 *    MultiPortResult is synthesized from P independent single-port
 *    answers; ports that share modules (or defeat the collapse)
 *    fall back to the simulator.
 *
 * Streams no tier can answer are simulated in full on that same
 * PerCycleMultiPort (memsys/multi_port.h), so callers always get an
 * answer and there is one per-cycle model behind every answer that
 * is not closed-form; claimed answers are bit-identical to plain
 * simulation (tests/test_theory_backend.cc and
 * tests/test_conflict_solver.cc
 * audit this across randomized grids; TierPolicy::AuditBoth audits
 * it on every sweep scenario it runs).  Every fallback is
 * attributed a FallbackReason; claim/fallback attribution is a
 * deterministic function of (config, mapping, planned streams) —
 * never of memo state.
 *
 * The outcome memo.  An access past the conflict-free proof is
 * keyed once, on its premapped per-port module sequences — the
 * simulator's own premap() view — jointly rank-canonicalized (the
 * OutcomeMemo soundness argument: the simulator compares module
 * numbers only for order, so an order-preserving relabeling of the
 * modules used cannot change one timing decision).  Whether the
 * collapse closes a stream is invariant under that relabeling too,
 * so each entry records it as a claimed bit beside the outcome in
 * position form — the form the loop records,
 * PerCycleMultiPort::trace() — in one bounded FIFO per backend:
 *
 *  - a claimed entry (a collapse that closed) replays as a claim;
 *  - a rejected entry skips the collapse and replays the fallback
 *    simulation it recorded;
 *  - a miss runs the collapse, then, if it fails, the simulation,
 *    and records whichever answered.
 *
 * The per-worker BackendCache keeps this backend — and its memo —
 * alive across a sweep, so a repeated access (a stencil's store
 * after its first load, the random starts of a sweep that land on
 * an order-isomorphic module sequence) neither re-proves nor
 * re-simulates.  Claims and fresh simulations alike fill the result
 * through the same replay: the scalars alone under
 * ResultDetail::Summary, materialized deliveries otherwise.  A
 * rejected entry taken for a Summary request keeps the scalars only
 * and serves only Summary requests; any other request gets
 * materialized deliveries (from a full entry, or from a fresh
 * simulation that upgrades the entry).  A replayed rejection is
 * still a fallback: the attribution is the one a real simulation
 * would carry.  At P > 1 each port's answer inside the
 * module-disjoint claim reads the same memo; a rejected port entry
 * defeats the claim, and the joint key of all P ports holds the
 * shared-module fallback.
 *
 * The window classification itself (mapping kind + stride family
 * against matchedWindow / sectionedWindows / ...) lives in the
 * planner: VectorAccessUnit::certifies, from which plan() sets
 * AccessPlan::expectConflictFree.  execute() dispatches on it:
 * certified streams take runSingleCertified (theorem-backed O(1)
 * claim), everything else goes straight to the memo and the
 * collapse; access() claims a certified summary access through
 * claimCertified() without planning its stream at all.  The
 * hinted entry point keeps the historical semantics for library
 * callers: the hint gates only the O(L) conflict-free proof; the
 * memo and the collapse are tried either way.
 */

#ifndef CFVA_THEORY_THEORY_BACKEND_H
#define CFVA_THEORY_THEORY_BACKEND_H

#include <cstdint>
#include <span>
#include <vector>

#include "memsys/backend.h"
#include "memsys/multi_port.h"
#include "memsys/steady_state.h"

namespace cfva {

/**
 * The analytic tier: answers provably conflict-free, periodic
 * conflicted, and module-disjoint multi-port streams analytically
 * and delegates everything else to its per-cycle simulator, which
 * is also where every stream is premapped.  Like the simulator, it
 * is reusable across accesses and cacheable per (config, mapping);
 * the mapping must outlive the backend.
 */
class TheoryBackend
{
  public:
    /**
     * @param cfg  memory shape the claims are proved against;
     *             rejected through MemConfig::validate()
     * @param map  address mapping (must outlive the backend)
     */
    TheoryBackend(const MemConfig &cfg, const ModuleMapping &map);

    /**
     * One single-port access with the planner's window
     * classification: when @p claimHint is false the O(L)
     * conflict-free proof is skipped (the windows already say it
     * conflicts) and the stream goes straight to the memo and the
     * collapse; when true the proof is attempted first.  @p detail
     * selects how much of the result is materialized — a claim, a
     * memo replay and a fresh fallback simulation alike carry no
     * deliveries under Summary.
     */
    AccessResult
    runSingleHinted(bool claimHint,
                    const std::vector<Request> &stream,
                    DeliveryArena *arena = nullptr,
                    ResultDetail detail = ResultDetail::Full);

    /**
     * An access of a stream the planner CERTIFIED conflict free
     * (AccessPlan::expectConflictFree): the paper's theorems — not a
     * per-access replay — are the proof, so the uniform schedule
     * (element i issues at cycle i, delivers at i+1+T) is claimed
     * directly.  Under ResultDetail::Summary that is O(1) per
     * access: no premap, no proof walk, no delivery synthesis.  The
     * certification chain stays honest three ways: the windows
     * behind expectConflictFree are property-tested against the
     * stepped oracle (tests/test_conflict_solver.cc certified-plan
     * suite), --tier audit re-simulates every claimed scenario on
     * demand, and the plain hinted/proof path remains available to
     * any caller that wants the per-access verification.  Below
     * Full detail only the stream's length is read: that is
     * claimCertified(), which VectorAccessUnit::access calls
     * without building the stream at all.
     */
    AccessResult
    runSingleCertified(const std::vector<Request> &stream,
                       DeliveryArena *arena = nullptr,
                       ResultDetail detail = ResultDetail::Full);

    /**
     * The summary claim of a certified access of @p length
     * elements: the uniform schedule's aggregates and no
     * deliveries, attributed (lastClaimed, lastReason, stats) like
     * every other claim.
     */
    AccessResult claimCertified(std::uint64_t length);

    /**
     * One access of P = @p streams.size() simultaneous ports:
     * module-disjoint ports are answered analytically, the rest
     * simulated (or replayed from the memo); @p detail as
     * in runSingleHinted().  P = 1 is runSingleHinted(true, ...).
     */
    MultiPortResult
    runPorts(const std::vector<std::vector<Request>> &streams,
             DeliveryArena *arena, ResultDetail detail);

    /** True iff the most recent access was answered
     *  analytically. */
    bool lastClaimed() const { return lastClaimed_; }

    /** Why the most recent access fell back (None after a
     *  claim). */
    FallbackReason lastReason() const { return lastReason_; }

    /** Cumulative claim/fallback counts over this instance. */
    const TierCounters &stats() const { return stats_; }

    /** Collapse and memo attribution: steady-state collapses (a
     *  fallback simulation steps every cycle of its access), keyed
     *  memo lookups, and how each rejected access was answered. */
    const FastPathStats &fastPathStats() const { return fastPath_; }

    /** Entries the outcome memo keeps (oldest evicted first). */
    static constexpr std::size_t kMemoEntries = 64;

    /** The per-cycle simulator: it premaps every stream, rejected
     *  streams fall back to it, and the collapse drives its loop.
     *  Its plain run()/runSingle() read no memo state, so the sim
     *  tier runs them on this same backend. */
    PerCycleMultiPort &fallback() { return fallback_; }

  private:
    /**
     * The O(L) conflict-free claim proof + synthesis over an
     * already premapped stream: walks @p mods tracking each
     * module's next-free cycle; if every request finds its module
     * free on arrival the conflict-free schedule is exact and
     * @p out is filled with the synthesized result (aggregates only
     * when @p materialize is false).  Returns false (leaving @p out
     * untouched) when any request would queue.
     */
    bool tryClaim(const std::vector<Request> &stream,
                  const ModuleId *mods, DeliveryArena *arena,
                  AccessResult &out, bool materialize);

    /** Fills @p out with the uniform conflict-free schedule's
     *  scalar aggregates for a length-@p length stream — the O(1)
     *  half of tryClaim's synthesis. */
    void summarizeUniform(std::size_t length, AccessResult &out);

    /** Materializes the uniform conflict-free schedule's delivery
     *  records on top of summarizeUniform(). */
    void synthesizeUniform(const std::vector<Request> &stream,
                           const ModuleId *mods,
                           DeliveryArena *arena, AccessResult &out);

    /** Looks the @p count premapped ports @p seqs up in the memo and
     *  counts a hit or a miss (empty and oversize accesses are not
     *  keyed and count neither).  The entry found, or nullptr. */
    const MemoOutcome *lookup(const PortSeq *seqs, std::size_t count);

    /**
     * The steady-state answer for one premapped port, given its
     * memo lookup @p hit: a claimed entry replays, a rejected one
     * refuses without collapsing, and a miss runs the collapse on
     * the simulator's loop, recording a success as a claimed entry
     * with its full trace.  True iff @p out was filled at
     * @p detail.
     */
    bool solve(const MemoOutcome *hit,
               const std::vector<Request> &stream, const PortSeq &seq,
               DeliveryArena *arena, AccessResult &out,
               ResultDetail detail);

    /**
     * True iff no module is used by two of the premapped ports
     * @p seqs: an O(total length) pass over epoch-stamped module
     * owners.
     */
    bool portsDisjoint(std::span<const PortSeq> seqs);

    /**
     * The multi-port claim over the premapped ports @p seqs:
     * proves pairwise module-disjointness and — since disjoint
     * ports never interact — synthesizes the MultiPortResult from P
     * independent single-port answers (port ids patched, makespan
     * assembled exactly as the simulator assembles it).
     * False when any two ports share a module or any port defeats
     * both analytic paths.
     */
    bool tryClaimPorts(
        const std::vector<std::vector<Request>> &streams,
        std::span<const PortSeq> seqs, DeliveryArena *arena,
        MultiPortResult &out, ResultDetail detail);

    /**
     * Answers a rejected access of P = @p seqs.size() premapped
     * ports into @p out[0..P): replayed from its memo lookup @p hit
     * when that entry can serve @p detail (a summary-only entry
     * serves Summary requests alone), otherwise simulated and
     * recorded — upgrading @p hit in place.  Returns the access
     * makespan.
     */
    Cycle fallBack(std::span<const std::vector<Request>> streams,
                   std::span<const PortSeq> seqs,
                   const MemoOutcome *hit, DeliveryArena *arena,
                   ResultDetail detail, AccessResult *out);

    /** Records the simulator's position-form outcome of its last
     *  @p count-port run under the key of the last lookup(), marked
     *  @p claimed: scalars only under ResultDetail::Summary, the
     *  whole traces otherwise.  Then releases the simulator's
     *  traces. */
    void record(std::size_t count, bool claimed, ResultDetail detail);

    /** Fills @p out, port @p port of an access, from a
     *  position-form @p trace — a memo entry's or the simulator's
     *  own — replayed against (@p stream, @p mods): the scalars
     *  alone under ResultDetail::Summary, materialized deliveries
     *  otherwise. */
    static void replayPort(const PortTrace &trace, std::size_t port,
                           const std::vector<Request> &stream,
                           const ModuleId *mods, DeliveryArena *arena,
                           ResultDetail detail, AccessResult &out);

    MemConfig cfg_;
    PerCycleMultiPort fallback_;
    SteadyStateCollapser collapser_;
    OutcomeMemo memo_{kMemoEntries};
    FastPathStats fastPath_;
    std::vector<Cycle> nextFree_; // per-module scratch

    /** Epoch-stamped module ownership for portsDisjoint(): owner_
     *  is meaningful only where ownerEpoch_ matches epoch_, so a
     *  new check is O(1) instead of O(modules). */
    std::vector<unsigned> owner_;
    std::vector<std::uint32_t> ownerEpoch_;
    std::uint32_t epoch_ = 0;

    TierCounters stats_;
    bool lastClaimed_ = false;
    FallbackReason lastReason_ = FallbackReason::None;
};

} // namespace cfva

#endif // CFVA_THEORY_THEORY_BACKEND_H
