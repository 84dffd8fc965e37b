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
 *  - Conflicted claims: theory/conflict_solver.h steps the
 *    O(period) transient on this backend's own PerCycleMultiPort
 *    loop, extrapolates the periodic steady state, and memoizes the
 *    proof per rank-canonicalized module sequence —
 *    the per-worker BackendCache keeps this backend (and the memo)
 *    alive across a sweep, so repeated workload accesses stop
 *    re-proving the same claim.
 *  - Multi-port claims: when the P > 1 port streams are provably
 *    disjoint across modules, the ports never interact and the
 *    MultiPortResult is synthesized from P independent single-port
 *    answers; ports that share modules (or defeat the solver) fall
 *    back to the simulator.
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
 * The fallback memo.  A rejected access is keyed on its premapped
 * per-port module sequences — the simulator's own premap() view,
 * the one every proof of the access already read — jointly
 * rank-canonicalized (the OutcomeMemo soundness argument: the
 * simulator compares module numbers only for order, so an
 * order-preserving relabeling of the modules used cannot change
 * one timing decision), and the simulator's outcome is kept in
 * position form — the form its loop records,
 * PerCycleMultiPort::trace() — in a bounded FIFO, separate from the
 * solver's memo.  A fresh simulation and a memo hit fill the result
 * through the same replay: the scalars alone under
 * ResultDetail::Summary, materialized deliveries otherwise.  A
 * repeated access — a stencil's store after its first load, the
 * random starts of a sweep that land on an order-isomorphic module
 * sequence — replays instead of re-simulating.  An entry taken for
 * a Summary request keeps the scalars only and serves only Summary
 * requests; any other request gets materialized deliveries (from a
 * full entry, or from a fresh simulation that upgrades the entry).
 * A hit is still a fallback: the attribution is the one a real
 * simulation would carry.
 *
 * The window classification itself (mapping kind + stride family
 * against matchedWindow / sectionedWindows / ...) lives in the
 * planner: VectorAccessUnit::certifies, from which plan() sets
 * AccessPlan::expectConflictFree.  execute() dispatches on it:
 * certified streams take runSingleCertified (theorem-backed O(1)
 * claim), everything else goes straight to the steady-state solver;
 * access() claims a certified summary access through
 * claimCertified() without planning its stream at all.  The
 * hinted entry point keeps the historical semantics for library
 * callers: the hint gates only the O(L) conflict-free proof; the
 * solver is attempted either way.
 */

#ifndef CFVA_THEORY_THEORY_BACKEND_H
#define CFVA_THEORY_THEORY_BACKEND_H

#include <cstdint>
#include <span>
#include <vector>

#include "memsys/backend.h"
#include "memsys/multi_port.h"
#include "theory/conflict_solver.h"

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
     * conflicts) and the stream goes straight to the steady-state
     * solver; when true the proof is attempted first.  @p detail
     * selects how much of the result is materialized — a claim, a
     * fallback memo replay and a fresh fallback simulation alike
     * carry no deliveries under Summary.
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
     * simulated (or replayed from the fallback memo); @p detail as
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

    /** Collapse/memo attribution of the steady-state solver — the
     *  only owner of the periodic fast path (a fallback simulation
     *  steps every cycle of its access) — plus the fallback memo's
     *  hits and misses. */
    FastPathStats fastPathStats() const;

    /** Entries the fallback memo keeps (oldest evicted first). */
    static constexpr std::size_t kFallbackMemoEntries = 64;

    /** The per-cycle simulator: it premaps every stream, rejected
     *  streams fall back to it, and the steady-state solver drives
     *  its loop.  Its plain run()/runSingle() read no solver or
     *  memo state, so the sim tier runs them on this same
     *  backend. */
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

    /**
     * One port's full analytic story: the conflict-free proof when
     * @p attemptProof, then the steady-state solver.  True iff one
     * of them filled @p out at the requested detail.
     */
    bool answerMapped(bool attemptProof,
                      const std::vector<Request> &stream,
                      const ModuleId *mods, DeliveryArena *arena,
                      AccessResult &out, ResultDetail detail);

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
     * Looks the premapped ports @p seqs up in the fallback memo and
     * counts the outcome.  True only for an entry that can answer
     * @p detail: a summary-only entry answers Summary requests
     * alone.  Empty and oversize accesses count neither way.
     */
    bool fallbackHit(const PortSeq *seqs, std::size_t count,
                     ResultDetail detail);

    /** Records the simulator's position-form outcome of its last
     *  @p count-port run for the key of the last fallbackHit():
     *  scalars only under ResultDetail::Summary, the whole traces
     *  otherwise.  Then releases the simulator's traces. */
    void fallbackStore(std::size_t count, ResultDetail detail);

    /** Fills @p out, port @p port of an access, from a
     *  position-form @p trace — the fallback memo's hit or the
     *  simulator's own — replayed against (@p stream, @p mods):
     *  the scalars alone under ResultDetail::Summary, materialized
     *  deliveries otherwise. */
    static void replayPort(const PortTrace &trace, std::size_t port,
                           const std::vector<Request> &stream,
                           const ModuleId *mods, DeliveryArena *arena,
                           ResultDetail detail, AccessResult &out);

    MemConfig cfg_;
    PerCycleMultiPort fallback_;
    ConflictSolver solver_;
    std::vector<Cycle> nextFree_; // per-module scratch
    OutcomeMemo fallbackMemo_{kFallbackMemoEntries};
    std::uint64_t fallbackMemoHits_ = 0;
    std::uint64_t fallbackMemoMisses_ = 0;
    TierCounters stats_;
    bool lastClaimed_ = false;
    FallbackReason lastReason_ = FallbackReason::None;
};

} // namespace cfva

#endif // CFVA_THEORY_THEORY_BACKEND_H
