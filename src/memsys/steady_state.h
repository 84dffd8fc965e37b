/**
 * @file
 * Periodic steady-state collapse and base-invariant outcome
 * memoization: the machinery behind the analytic conflict solver.
 *
 * The paper's whole analysis rests on constant-stride conflict
 * patterns being *periodic* (Theorems 1 and 3 compute the period in
 * closed form); the per-cycle simulator steps every cycle of every
 * conflicted access.  Two mechanisms exploit the periodicity while
 * staying bit-identical to the full simulation:
 *
 * - SteadyStateCollapser: simulates the per-cycle model only until
 *   the machine state recurs at two issue positions one stream
 *   period apart, then closes the form — every Delivery timestamp
 *   and the stall count of the remaining floor((L-prefix)/period)
 *   repetitions are affine extrapolations of the captured segment,
 *   and a short simulated tail finishes the remainder.  Recurrence
 *   of the *relative* state (buffer occupancy and in-flight
 *   timestamps as offsets from the current cycle and issue
 *   position) is exact, so the extrapolated trace equals the
 *   stepped trace cycle for cycle.
 * - OutcomeMemo: two streams whose premapped module sequences are
 *   equal up to an order-preserving relabeling drive the simulator
 *   through identical timing decisions — every tie-break compares
 *   module numbers, and a strictly increasing relabeling preserves
 *   every comparison.  The memo keys collapsed outcomes on the
 *   rank-canonicalized module sequence and replays them against
 *   new streams, filling addresses/elements/modules from the new
 *   stream and timing fields from the cache.  This is the sound
 *   version of "base-address invariance": a shifted base that
 *   yields an order-isomorphic module sequence hits; one that
 *   reorders modules (XOR mappings do) correctly misses.
 *
 * Both live in the analytic tier.  theory/conflict_solver.h runs
 * the collapse and memoizes its proofs; theory/theory_backend.h
 * holds a second, separate OutcomeMemo in front of its simulation
 * fallback, keyed on the same canonical form over all P ports, so a
 * repeated rejected access replays instead of re-simulating.  The
 * per-cycle simulator (multi_port.h) has no fast path of its own —
 * it is the plain oracle both are differentially tested against (tests/test_collapse.cc,
 * tests/test_conflict_solver.cc, tests/test_theory_backend.cc,
 * --tier audit).
 */

#ifndef CFVA_MEMSYS_STEADY_STATE_H
#define CFVA_MEMSYS_STEADY_STATE_H

#include <cstdint>
#include <deque>
#include <vector>

#include "common/bits.h"
#include "memsys/request.h"

namespace cfva {

struct MemConfig;

/** Fast-path attribution counters, mergeable across instances. */
struct FastPathStats
{
    /** Accesses answered by steady-state collapse. */
    std::uint64_t collapseHits = 0;

    /** Cycles actually stepped (prefix + tail) on collapsed
     *  accesses — the simulation work that remained after the
     *  periodic middle was extrapolated. */
    std::uint64_t collapsePrefixCycles = 0;

    /** Accesses replayed from the outcome memo. */
    std::uint64_t memoHits = 0;

    /** Memo lookups that missed (collapse then ran or failed). */
    std::uint64_t memoMisses = 0;

    /** Rejected accesses the theory tier's fallback memo replayed
     *  instead of simulating, and those it sent to the simulator. */
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
 * One delivered element in stream-position form: the timing the
 * simulator decided, with the element named by its issue position
 * instead of its address.  Position form is what makes an outcome
 * replayable against a different stream with the same module
 * sequence.
 */
struct Emit
{
    std::uint32_t pos = 0; //!< index into the request stream
    Cycle issued = 0;
    Cycle arrived = 0;
    Cycle serviceStart = 0;
    Cycle ready = 0;
    Cycle delivered = 0;

    bool operator==(const Emit &o) const = default;
};

/** Scalar aggregates of a position-form outcome. */
struct EmitSummary
{
    Cycle firstIssue = 0;
    Cycle lastDelivery = 0;
    std::uint64_t stallCycles = 0;
    Cycle latency = 0;
    bool conflictFree = false;

    bool operator==(const EmitSummary &o) const = default;
};

/**
 * Fills @p result from a position-form outcome and the concrete
 * stream it is being replayed against: addresses, element indices,
 * and module numbers come from (@p stream, @p mods) at the stored
 * positions, every timing field from the cached trace, and each
 * delivery is stamped with @p port.  result.deliveries must be
 * empty (capacity may be reserved).
 */
void materializeEmits(const EmitSummary &summary,
                      const std::vector<Emit> &emits,
                      const std::vector<Request> &stream,
                      const ModuleId *mods, AccessResult &result,
                      unsigned port = 0);

/** Copies only the scalar aggregates of a position-form outcome
 *  into @p result, leaving result.deliveries untouched — the
 *  summary-only half of materializeEmits(). */
void applyEmitSummary(const EmitSummary &summary,
                      AccessResult &result);

/**
 * The steady-state collapse engine.  Holds only scratch state, so
 * one instance per solver serves every access; tryRun() leaves the
 * last successful trace readable until the next call.
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
     * to @p mods on the shape @p cfg.  On success returns true with
     * emits()/summary() holding the full position-form trace —
     * bit-identical to what the simulator's runSingle() would
     * record — and
     * writes the stepped-cycle count to @p steppedOut.  Returns
     * false (scratch clobbered, no other effect) when the module
     * sequence is aperiodic, too short, or the state never recurs
     * within the snapshot budget; the caller then falls back to the
     * simulator.
     */
    bool tryRun(const MemConfig &cfg, std::size_t length,
                const ModuleId *mods, Cycle *steppedOut);

    /** Position-form trace of the last successful tryRun(). */
    const std::vector<Emit> &emits() const { return emits_; }

    /** Scalar aggregates of the last successful tryRun(). */
    const EmitSummary &summary() const { return summary_; }

  private:
    /** One element in flight, in absolute position/cycle terms. */
    struct Flight
    {
        std::uint32_t pos = 0;
        Cycle issued = 0;
        Cycle arrived = 0;
        Cycle serviceStart = 0; //!< meaningful once in service
        Cycle ready = 0;        //!< meaningful once in service
    };

    /** Mirror of one MemoryModule's state, replayable/shiftable. */
    struct ModState
    {
        std::vector<Flight> in;  //!< ring storage, size q
        unsigned inHead = 0, inCount = 0;
        Flight svc{};            //!< the service in flight
        bool busy = false;
        std::vector<Flight> out; //!< ring storage, size q'
        unsigned outHead = 0, outCount = 0;
    };

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

    /** Serializes the live state relative to (@p now, @p next)
     *  into sig_ and returns its hash. */
    std::uint64_t encodeState(Cycle now, std::size_t next);

    std::vector<ModState> state_;
    std::vector<std::size_t> fail_;     //!< KMP scratch
    std::vector<std::int64_t> sig_;     //!< snapshot-encoding scratch
    std::vector<Snapshot> snapshots_;
    std::vector<Emit> emits_;
    EmitSummary summary_;
};

/** One port's premapped module sequence: the unit an OutcomeMemo
 *  key is built from. */
struct PortSeq
{
    const ModuleId *mods = nullptr;
    std::size_t length = 0;
};

/** One port of a memoized outcome: its aggregates and, unless the
 *  entry is summary-only, its deliveries in position form. */
struct MemoPort
{
    EmitSummary summary;
    std::vector<Emit> emits;
};

/** A memoized access outcome over P >= 1 ports. */
struct MemoOutcome
{
    std::vector<MemoPort> ports;

    /** The access makespan (MultiPortResult::makespan). */
    Cycle makespan = 0;

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

    /** Default capacity; the oldest entry is evicted beyond it. */
    static constexpr std::size_t kMaxEntries = 256;

    explicit OutcomeMemo(std::size_t capacity = kMaxEntries)
        : capacity_(capacity)
    {
    }

    /**
     * Canonicalizes the @p count port sequences @p ports over
     * @p moduleCount modules and looks the key up.  On a hit
     * returns true with cached() readable.  An empty or oversize
     * access is not keyed (returns false, and a following store()
     * is a no-op); any other miss keeps the key so an immediately
     * following store() reuses it.
     */
    bool lookup(const PortSeq *ports, std::size_t count,
                ModuleId moduleCount);

    /** Single-port lookup(). */
    bool
    lookup(std::size_t length, const ModuleId *mods,
           ModuleId moduleCount)
    {
        const PortSeq port{mods, length};
        return lookup(&port, 1, moduleCount);
    }

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

    /** Single-port store() of a full position-form outcome. */
    void store(const std::vector<Emit> &emits,
               const EmitSummary &summary);

    /** The outcome of the last lookup() hit. */
    const MemoOutcome &cached() const;

    /** Single-port views of cached(). */
    const std::vector<Emit> &
    cachedEmits() const
    {
        return cached().ports.front().emits;
    }
    const EmitSummary &
    cachedSummary() const
    {
        return cached().ports.front().summary;
    }

    /** Entries currently cached (for tests). */
    std::size_t size() const { return entries_.size(); }

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
