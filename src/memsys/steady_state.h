/**
 * @file
 * Periodic steady-state collapse and base-invariant outcome
 * memoization: the machinery behind the analytic conflict solver.
 *
 * The paper's whole analysis rests on constant-stride conflict
 * patterns being *periodic* (Theorems 1 and 3 compute the period in
 * closed form); the simulation engines step every cycle of every
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
 *   equal up to an order-preserving relabeling drive the engine
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
 * Both are owned by one caller: theory/conflict_solver.h, the
 * analytic tier, whose solve() runs the memo lookup and the
 * collapse.  The stepped engines (memory_system.h,
 * event_driven.h) have no fast path of their own — they are the
 * plain oracles the solver is differentially tested against
 * (tests/test_collapse.cc, tests/test_conflict_solver.cc,
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

    FastPathStats &
    operator+=(const FastPathStats &o)
    {
        collapseHits += o.collapseHits;
        collapsePrefixCycles += o.collapsePrefixCycles;
        memoHits += o.memoHits;
        memoMisses += o.memoMisses;
        return *this;
    }

    bool operator==(const FastPathStats &o) const = default;
};

/**
 * One delivered element in stream-position form: the timing the
 * engine decided, with the element named by its issue position
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
 * positions, every timing field from the cached trace.
 * result.deliveries must be empty (capacity may be reserved).
 */
void materializeEmits(const EmitSummary &summary,
                      const std::vector<Emit> &emits,
                      const std::vector<Request> &stream,
                      const ModuleId *mods, AccessResult &result);

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
     * bit-identical to what MemorySystem::run would record — and
     * writes the stepped-cycle count to @p steppedOut.  Returns
     * false (scratch clobbered, no other effect) when the module
     * sequence is aperiodic, too short, or the state never recurs
     * within the snapshot budget; the caller then runs its normal
     * engine loop.
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

/**
 * Bounded cache of collapsed outcomes keyed on the
 * rank-canonicalized module sequence (distinct modules used, sorted
 * ascending, rewritten as ranks 0..k-1).  Not thread-safe; the
 * solver holds one per instance, exactly like its other scratch.
 */
class OutcomeMemo
{
  public:
    /** Longest stream worth caching (bounds per-entry memory). */
    static constexpr std::size_t kMaxLen = 4096;

    /** Entries retained; the oldest is evicted beyond this. */
    static constexpr std::size_t kMaxEntries = 256;

    /**
     * Canonicalizes (@p length, @p mods) over @p moduleCount
     * modules and looks the rank sequence up.  On a hit returns
     * true with cachedEmits()/cachedSummary() readable; on a miss
     * the canonical form is kept so an immediately following
     * store() of the same stream reuses it.
     */
    bool lookup(std::size_t length, const ModuleId *mods,
                ModuleId moduleCount);

    /**
     * Inserts the outcome of the stream most recently passed to
     * lookup() (which must have missed).  Oversize streams are
     * ignored; the oldest entry is evicted at capacity.
     */
    void store(std::size_t length, const std::vector<Emit> &emits,
               const EmitSummary &summary);

    /** Trace of the last lookup() hit. */
    const std::vector<Emit> &cachedEmits() const;

    /** Aggregates of the last lookup() hit. */
    const EmitSummary &cachedSummary() const;

    /** Entries currently cached (for tests). */
    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        std::uint64_t hash = 0;
        std::vector<ModuleId> rankSeq;
        std::vector<Emit> emits;
        EmitSummary summary;
    };

    static constexpr ModuleId kUnranked = ~ModuleId{0};

    std::vector<ModuleId> rankSeq_; //!< canonical form of last lookup
    std::uint64_t hash_ = 0;
    std::size_t found_ = ~std::size_t{0};
    std::vector<ModuleId> rankOf_;  //!< module id -> rank scratch
    std::vector<ModuleId> used_;    //!< distinct modules scratch
    std::deque<Entry> entries_;     //!< FIFO eviction order
};

} // namespace cfva

#endif // CFVA_MEMSYS_STEADY_STATE_H
