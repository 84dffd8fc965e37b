/**
 * @file
 * ConflictSolver: the analytic steady-state tier for conflicted and
 * multi-port streams.
 *
 * The paper's argument (Theorems 1 and 3) is that constant-stride
 * conflict behaviour is analyzable, not merely simulable.  The
 * SteadyStateCollapser (memsys/steady_state.h) rests on a
 * stronger operational fact: a conflicted constant-stride access is
 * exactly periodic — once the machine state (buffer occupancy and
 * in-flight timestamps, taken relative to the current cycle and
 * issue position) recurs at two issue positions one
 * module-sequence period apart, every Delivery timestamp and the
 * stall count of the remaining repetitions are affine
 * extrapolations of the captured segment.  The module-visit
 * multiset over one stride period plus the buffer depths therefore
 * determines the whole steady-state issue schedule; only the
 * O(period) transient has to be established at all.
 *
 * This class packages that closed form as a *claiming* tier rather
 * than a simulation accelerator:
 *
 *  - solve() answers a single premapped stream without stepping
 *    the whole access: memo replay when the rank-canonicalized
 *    module sequence was solved before, otherwise one collapse pass
 *    over the simulator's own loop (step the O(period) transient,
 *    extrapolate the rest, step the tail).
 *    Success/failure is a deterministic function of (config, module
 *    sequence, length) — memo state only changes the speed, never
 *    the answer or the claim attribution, so the claimed/fallback
 *    columns of a report never depend on what ran before.
 *  - beginPortCheck()/portDisjoint() implement the multi-port
 *    extension: when per-port streams are provably disjoint across
 *    modules, the ports never interact — each port's trace is
 *    bit-identical to its single-port trace — so a P > 1 access
 *    decomposes into P independent single-port answers
 *    (theory/theory_backend.cc synthesizes the MultiPortResult).
 *
 * The solver is the only owner of the collapse and the memo: the
 * plain simulation path carries no fast path, so every access sent
 * to it is stepped cycle by cycle.  There is one per-cycle model,
 * PerCycleMultiPort's loop (memsys/multi_port.cc); the collapse
 * runs that loop at P = 1, snapshotting and jumping at cycle tops,
 * so every cycle it does not extrapolate is the simulator's own
 * step.  The
 * extrapolation is checked by test — tests/test_collapse.cc and
 * tests/test_conflict_solver.cc diff solve() against the plain
 * loop — and --tier audit cross-checks every claimed answer against
 * the stepped oracle end to end.
 */

#ifndef CFVA_THEORY_CONFLICT_SOLVER_H
#define CFVA_THEORY_CONFLICT_SOLVER_H

#include <cstdint>
#include <vector>

#include "memsys/steady_state.h"

namespace cfva {

class DeliveryArena;

/**
 * Memoized analytic solver for periodic (conflicted) streams and
 * the disjointness side of multi-port claims.  Holds only scratch
 * and the proof memo, so one instance per TheoryBackend serves
 * every access; the per-worker BackendCache keeps the backend — and
 * with it this memo — alive across a whole sweep, which is what
 * stops retune/stencil workloads re-proving the same claim per
 * access.  Not thread-safe (per-worker, like all simulator scratch).
 */
class ConflictSolver
{
  public:
    /**
     * Attempts to answer @p stream (premapped to @p mods) on
     * @p sim's memory shape without stepping the whole access:
     * memo replay, else a collapse pass over @p sim's loop + memo
     * insert.  On success fills @p result — bit-identical to the
     * plain stepped loop — and returns true; on failure returns
     * false with @p result untouched (sim's traces clobbered).
     * Every call counts one memo hit or miss (streams longer than
     * OutcomeMemo::kMaxLen bypass the memo and count neither), and
     * a successful collapse counts one collapse hit.  The delivery
     * buffer is acquired from @p arena only once the stream is
     * claimed.  When @p materialize is false only the scalar
     * aggregates are written and result.deliveries stays empty —
     * the claim decision and every aggregate are identical either
     * way.
     */
    bool solve(PerCycleMultiPort &sim,
               const std::vector<Request> &stream,
               const ModuleId *mods, DeliveryArena *arena,
               AccessResult &result, bool materialize = true);

    /** Starts a fresh port-disjointness epoch over @p moduleCount
     *  modules. */
    void beginPortCheck(ModuleId moduleCount);

    /**
     * Marks the modules of one port's premapped sequence inside the
     * current epoch.  Returns true iff no module was already owned
     * by a previous port of this epoch — i.e. the port is disjoint
     * from every port checked since beginPortCheck().
     */
    bool portDisjoint(std::size_t length, const ModuleId *mods,
                      unsigned port);

    /** Memo/collapse attribution of this solver's claims. */
    const FastPathStats &stats() const { return stats_; }

  private:
    SteadyStateCollapser collapser_;
    OutcomeMemo memo_;
    FastPathStats stats_;

    /** Epoch-stamped module ownership for the port check: owner_
     *  is meaningful only where ownerEpoch_ matches epoch_, so a
     *  new check is O(1) instead of O(modules). */
    std::vector<unsigned> owner_;
    std::vector<std::uint32_t> ownerEpoch_;
    std::uint32_t epoch_ = 0;
};

} // namespace cfva

#endif // CFVA_THEORY_CONFLICT_SOLVER_H
