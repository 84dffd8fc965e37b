/**
 * @file
 * Periodic steady-state collapse and base-invariant outcome
 * memoization: the machinery behind the analytic tier's conflicted
 * claims.
 *
 * The paper's whole analysis rests on constant-stride conflict
 * patterns being *periodic* (Theorems 1 and 3 compute the period in
 * closed form); the per-cycle simulator steps every cycle of every
 * conflicted access.  Two mechanisms exploit the periodicity while
 * staying bit-identical to the full simulation:
 *
 * - SteadyStateCollapser: a pass of the simulator's own loop
 *   (memsys/multi_port.h) at P = 1 that the loop calls at the top
 *   of every cycle.  It snapshots the machine state at two issue
 *   positions one stream period apart and, once the state recurs,
 *   closes the form — every Delivery timestamp and the stall count
 *   of the remaining floor((L-prefix)/period) repetitions are
 *   affine extrapolations of the captured segment, the modules are
 *   shifted by the same offset, and the loop steps the short tail.
 *   Recurrence of the *relative* state (MemoryModule::encodeState:
 *   buffer occupancy and in-flight timestamps as offsets from the
 *   current cycle and issue position) is exact, so the extrapolated
 *   trace equals the stepped trace cycle for cycle.  The collapser
 *   holds no model of its own: every cycle it does not skip is
 *   stepped by the loop.
 * - OutcomeMemo: two streams whose premapped module sequences are
 *   equal up to an order-preserving relabeling drive the simulator
 *   through identical timing decisions — every tie-break compares
 *   module numbers, and a strictly increasing relabeling preserves
 *   every comparison.  The memo keys position-form outcomes on the
 *   rank-canonicalized module sequence and replays them against
 *   new streams, filling addresses/elements/modules from the new
 *   stream and timing fields from the cache.  This is the sound
 *   version of "base-address invariance": a shifted base that
 *   yields an order-isomorphic module sequence hits; one that
 *   reorders modules (XOR mappings do) correctly misses.
 *
 * Both live in the analytic tier.  theory/theory_backend.h holds
 * one OutcomeMemo per backend, keyed on the canonical form over all
 * P ports: an entry records whether the collapse closed the access
 * (a claim, stored with its full trace) or the simulator answered
 * it (a fallback, filled straight from the loop's position-form
 * traces), so a repeated access is keyed once and then neither
 * re-collapsed nor re-simulated.  The plain simulation path pays
 * nothing for the collapser's call (a template parameter of the
 * loop compiles it out), and --tier audit and the differential
 * suites (tests/test_collapse.cc, tests/test_conflict_solver.cc,
 * tests/test_theory_backend.cc) hold the collapsed answers to the
 * plain stepped loop.
 */

#ifndef CFVA_MEMSYS_STEADY_STATE_H
#define CFVA_MEMSYS_STEADY_STATE_H

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/bits.h"
#include "memsys/multi_port.h"
#include "memsys/request.h"

namespace cfva {

/** Fast-path attribution counters, mergeable across instances. */
struct FastPathStats
{
    /** Accesses answered by steady-state collapse. */
    std::uint64_t collapseHits = 0;

    /** Cycles actually stepped (prefix + tail) on collapsed
     *  accesses — the simulation work that remained after the
     *  periodic middle was extrapolated. */
    std::uint64_t collapsePrefixCycles = 0;

    /** Keyed outcome-memo lookups that found an entry — a claim or
     *  a rejection — and those that missed (the collapse then ran). */
    std::uint64_t memoHits = 0;
    std::uint64_t memoMisses = 0;

    /** Rejected accesses replayed from a memo entry instead of
     *  simulating, and those sent to the simulator (empty and
     *  oversize accesses are not keyed and count neither way). */
    std::uint64_t fallbackMemoHits = 0;
    std::uint64_t fallbackMemoMisses = 0;

    FastPathStats &
    operator+=(const FastPathStats &o)
    {
        collapseHits += o.collapseHits;
        collapsePrefixCycles += o.collapsePrefixCycles;
        memoHits += o.memoHits;
        memoMisses += o.memoMisses;
        fallbackMemoHits += o.fallbackMemoHits;
        fallbackMemoMisses += o.fallbackMemoMisses;
        return *this;
    }

    bool operator==(const FastPathStats &o) const = default;
};

/**
 * The steady-state collapse pass.  Holds only scratch state, so one
 * instance per theory backend serves every access.
 */
class SteadyStateCollapser
{
  public:
    /** Periods above this are not worth snapshotting. */
    static constexpr std::size_t kMaxPeriod = 2048;

    /** Distinct state snapshots kept before giving up. */
    static constexpr std::size_t kMaxSnapshots = 64;

    /**
     * Attempts to answer an access of @p length requests premapped
     * to @p mods by running @p sim's loop with this collapser.  On
     * success returns true with sim.trace(0) holding the full
     * position-form trace — bit-identical to the plain loop's —
     * and writes the stepped-cycle count to @p steppedOut.  Returns
     * false (the simulator's scratch clobbered, no other effect)
     * when the module sequence is aperiodic, too short, or the
     * state never recurs within the snapshot budget; the caller
     * then falls back to the plain simulation.
     */
    bool tryRun(PerCycleMultiPort &sim, std::size_t length,
                const ModuleId *mods, Cycle *steppedOut);

    /**
     * The loop's call at the top of each cycle of a tryRun():
     * snapshots the state at each multiple of the period and, once
     * it recurs, advances @p now, @p port and @p modules past the
     * remaining whole repetitions.  False gives up the run.
     */
    bool atCycleTop(Cycle &now, detail::PortState &port,
                    std::span<MemoryModule> modules);

  private:
    /** Relative-state snapshot at an issue-position multiple of
     *  the module-sequence period. */
    struct Snapshot
    {
        std::uint64_t hash = 0;
        std::vector<std::int64_t> sig; //!< serialized relative state
        Cycle now = 0;
        std::size_t next = 0;
        std::size_t emitCount = 0;
        std::uint64_t stalls = 0;
    };

    /** Smallest period of mods[0..length) via the KMP failure
     *  function; length itself when aperiodic. */
    std::size_t smallestPeriod(std::size_t length,
                               const ModuleId *mods);

    /** Extrapolates the segment since @p match over the remaining
     *  whole repetitions and moves the loop past them. */
    void jump(const Snapshot &match, Cycle &now,
              detail::PortState &port,
              std::span<MemoryModule> modules);

    std::vector<std::size_t> fail_;     //!< KMP scratch
    std::vector<std::int64_t> sig_;     //!< snapshot-encoding scratch
    std::vector<Snapshot> snapshots_;

    // State of the current tryRun().
    std::size_t length_ = 0;
    std::size_t period_ = 0;
    std::size_t nextSnapPos_ = 0;
    bool jumped_ = false;
    Cycle skipped_ = 0; //!< cycles the jump extrapolated
};

/** A memoized access outcome over P >= 1 ports. */
struct MemoOutcome
{
    std::vector<PortTrace> ports;

    /** The access makespan (MultiPortResult::makespan). */
    Cycle makespan = 0;

    /** The steady-state collapse closed the access (a single-port
     *  claim, kept with its full trace); false for a simulated
     *  fallback.  A function of the key: an order-preserving
     *  relabeling cannot change whether the state recurs. */
    bool claimed = false;

    /** Only the scalar aggregates were kept: the entry can answer
     *  a caller that folds aggregates, never one that needs the
     *  delivery records. */
    bool summaryOnly = false;
};

/**
 * Bounded FIFO cache of access outcomes keyed on the jointly
 * rank-canonicalized per-port module sequences: the distinct
 * modules used by any port, sorted ascending, rewritten as ranks
 * 0..k-1, each port's rank sequence prefixed by its length.  One
 * relabeling shared by every port keeps both the per-port tie-breaks
 * and the cross-port module sharing intact, so equal keys have
 * bit-identical position-form outcomes on the stepped simulator.
 * Not thread-safe; each owner holds its own instance, exactly like
 * its other scratch.
 */
class OutcomeMemo
{
  public:
    /** Longest access (elements summed over ports) worth caching;
     *  bounds per-entry memory. */
    static constexpr std::size_t kMaxLen = 4096;

    /** Keeps at most @p capacity entries, evicting the oldest
     *  beyond it. */
    explicit OutcomeMemo(std::size_t capacity) : capacity_(capacity) {}

    /**
     * Canonicalizes the @p count port sequences @p ports over
     * @p moduleCount modules and looks the key up.  Returns the
     * entry found, valid until the next store(), or nullptr.  An
     * empty or oversize access is not keyed (returns nullptr, and a
     * following store() is a no-op); any other miss keeps the key
     * so an immediately following store() reuses it.
     */
    const MemoOutcome *lookup(const PortSeq *ports, std::size_t count,
                              ModuleId moduleCount);

    /** True iff the most recent lookup() produced a key (the
     *  access was neither empty nor oversize). */
    bool keyed() const { return keyed_; }

    /**
     * Records @p outcome under the key of the most recent lookup().
     * After a hit the entry is replaced in place (a summary-only
     * entry upgraded to a full one); after a miss it is appended,
     * evicting the oldest entry at capacity.  A no-op when the
     * lookup produced no key.
     */
    void store(MemoOutcome outcome);

  private:
    struct Entry
    {
        std::uint64_t hash = 0;
        std::vector<ModuleId> key;
        MemoOutcome outcome;
    };

    static constexpr ModuleId kUnranked = ~ModuleId{0};

    std::size_t capacity_;
    std::vector<ModuleId> key_;     //!< canonical form of last lookup
    std::uint64_t hash_ = 0;
    bool keyed_ = false;
    std::size_t found_ = ~std::size_t{0};
    std::vector<ModuleId> rankOf_;  //!< module id -> rank scratch
    std::deque<Entry> entries_;     //!< FIFO eviction order
};

} // namespace cfva

#endif // CFVA_MEMSYS_STEADY_STATE_H
