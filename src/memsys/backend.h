/**
 * @file
 * The port-aware vocabulary every memory consumer shares.
 *
 * An access of P simultaneous request streams on one set of memory
 * modules yields a MultiPortResult, where the single-port access
 * every earlier layer was built around is simply the P = 1 case.
 * Two classes answer accesses, one inside the other:
 *
 * - PerCycleMultiPort (memsys/multi_port.h): the cycle-stepped
 *   simulator, one loop over P port views; the paper's single-port
 *   memory runs that same loop with P = 1.  It is the oracle the
 *   analytic tier and --tier audit are differentially tested
 *   against, and it premaps every stream it runs.
 * - TheoryBackend (theory/theory_backend.h): the analytic tier,
 *   which answers what it can prove and falls back to the one
 *   PerCycleMultiPort it embeds — the same simulator premaps the
 *   streams its proofs read.
 *
 * BackendCache (memsys/backend_cache.h) keeps one TheoryBackend per
 * (worker, memory shape, mapping); the sim tier runs that entry's
 * embedded simulator.
 *
 * TierPolicy lives here (not in core/) so the dispatch is decided at
 * the memsys layer and every consumer — VectorAccessUnit, the sweep
 * engine, tools — honors the knob for all port counts.
 */

#ifndef CFVA_MEMSYS_BACKEND_H
#define CFVA_MEMSYS_BACKEND_H

#include <span>
#include <vector>

#include "mapping/mapping.h"
#include "memsys/request.h"

namespace cfva {

/** Kept while sweepbench names it; drop at the next benchmark PR. */
enum class EngineKind
{
    PerCycle, //!< the per-cycle simulator, the only engine
};

/**
 * Which evaluation tier answers an access: the analytic theory
 * fast path (theory/theory_backend.h), the per-cycle simulator, or
 * both with a bit-for-bit cross-check.  The dispatch is decided
 * where the backends are, and every consumer honors one knob.
 */
enum class TierPolicy
{
    /** Always simulate, every cycle of every access: the pure
     *  stepped oracle. */
    SimulateAlways,

    /**
     * Try the analytic TheoryBackend first; accesses it cannot
     * prove conflict free fall back to the per-cycle simulator.
     * Claimed results are bit-identical to simulation by
     * construction (the audit tier enforces it).  The default of
     * SweepOptions and of cfva_sweep.
     */
    TheoryFirst,

    /** Run both tiers on every scenario and flag any divergence. */
    AuditBoth,
};

const char *to_string(TierPolicy tier);

/**
 * How much of a theory-tier AccessResult the caller needs.  The
 * plain simulator entry points (PerCycleMultiPort::run/runSingle)
 * always materialize every Delivery; the analytic tier can answer in
 * O(1) when the caller only folds aggregates (latency, stalls,
 * conflict-free), which is what the sweep hot path does with every
 * access whose delivery stream it would immediately release.
 */
enum class ResultDetail
{
    /** Materialize every Delivery (the library default). */
    Full,

    /** Timing aggregates only: the deliveries stay empty, whether
     *  the access was claimed, replayed from the theory tier's
     *  outcome memo, or simulated afresh on its fallback. */
    Summary,

    /**
     * Aggregates for uniform (conflict-free) claims — their Sec. 5F
     * chaining costs are closed-form — but full deliveries for
     * solver (periodic conflicted) claims, whose chained cost the
     * caller must fold delivery by delivery.
     */
    SummaryIfUniform,
};

/**
 * Why the theory tier handed an access to the simulator.
 * None means the access was answered analytically (or the theory
 * tier was not active at all).  The reason is a deterministic
 * function of the mapping and the planned module sequence, so a
 * replayed rejection carries the reason a simulation would.
 */
enum class FallbackReason : std::uint8_t
{
    /** Answered analytically, or the theory tier was inactive. */
    None = 0,

    /** The planner's windows said the stream conflicts and the
     *  steady-state solver could not close its form (aperiodic or
     *  too short for a recurrence). */
    Conflicted = 1,

    /** A P > 1 access whose ports share modules (or whose ports
     *  were not all analytically answerable). */
    MultiPort = 2,

    /** The planner expected conflict freedom but neither the O(L)
     *  proof nor the solver could establish the schedule. */
    Unproven = 3,

    /** The mapping is dynamically re-tuned; its fallbacks are
     *  attributed to the scheme, not the stream. */
    Dynamic = 4,
};

const char *to_string(FallbackReason reason);

/** Per-run attribution of theory-tier claims vs fallbacks. */
struct TierCounters
{
    std::uint64_t claimed = 0;  //!< accesses answered analytically
    std::uint64_t fallback = 0; //!< accesses that simulated

    /** Reason of the most recent fallback (None after a claim);
     *  callers that need per-access taxonomy read it after each
     *  execute. */
    FallbackReason lastReason = FallbackReason::None;

    void
    add(bool wasClaimed)
    {
        if (wasClaimed)
            ++claimed;
        else
            ++fallback;
    }

    bool operator==(const TierCounters &o) const = default;
};

/**
 * Per-worker bump arena for the sweep hot path: freelists of
 * Delivery result buffers and Request stream buffers, recycled
 * across accesses so tight sweeps stop paying heap allocations
 * (plus growth doublings) per simulated access.  Backends acquire()
 * their result buffers from it when one is supplied; the caller
 * release()s the buffers once the records have been consumed.
 * Stream builders use acquireRequests()/releaseRequests() the same
 * way.  Not thread-safe: use one arena per worker thread (the sweep
 * engine keeps one per worker).
 *
 * Both pools are bounded: at most kMaxPooled buffers are retained
 * per kind, and a released buffer whose capacity exceeds
 * kMaxPooledCapacity is freed instead of pooled — one pathological
 * large-L access must not pin a peak-sized buffer for the rest of a
 * long sweep.
 *
 * The arena also keeps high-water accounting: acquires()/reuses()
 * count how many buffer requests were served and how many of those
 * came from the pools instead of the allocator, and peakBytes() is
 * the high-water mark of retained pool capacity.  The sweep engine
 * folds these into SweepRunStats.
 */
class DeliveryArena
{
  public:
    /** Most buffers each freelist retains; further releases free. */
    static constexpr std::size_t kMaxPooled = 64;

    /** Largest per-buffer capacity (in records) worth retaining;
     *  oversize buffers are freed on release. */
    static constexpr std::size_t kMaxPooledCapacity =
        std::size_t{1} << 14;

    /** An empty buffer with at least @p capacity reserved. */
    std::vector<Delivery> acquire(std::size_t capacity);

    /** Returns a buffer's capacity to the freelist (or frees it
     *  when the pool is full or the buffer is oversize). */
    void release(std::vector<Delivery> &&buf);

    /** An empty Request buffer with @p capacity reserved. */
    std::vector<Request> acquireRequests(std::size_t capacity);

    /** Returns a Request buffer's capacity to its freelist. */
    void releaseRequests(std::vector<Request> &&buf);

    /** Delivery buffers currently pooled (for tests). */
    std::size_t pooled() const { return pool_.size(); }

    /** Request buffers currently pooled (for tests). */
    std::size_t pooledRequests() const { return reqPool_.size(); }

    /** Total bytes of capacity both pools retain (for tests). */
    std::size_t pooledBytes() const;

    /** Buffer requests served (both kinds). */
    std::uint64_t acquires() const { return acquires_; }

    /** Buffer requests served from a pool (no allocator call). */
    std::uint64_t reuses() const { return reuses_; }

    /** High-water mark of retained pool capacity, in bytes. */
    std::size_t peakBytes() const { return peakBytes_; }

  private:
    void noteRetained(std::size_t bytes);

    std::vector<std::vector<Delivery>> pool_;
    std::vector<std::vector<Request>> reqPool_;
    std::uint64_t acquires_ = 0;
    std::uint64_t reuses_ = 0;
    std::size_t retainedBytes_ = 0;
    std::size_t peakBytes_ = 0;
};

/**
 * Fills @p result from a position-form outcome and the concrete
 * stream it belongs to: addresses, element indices and module
 * numbers come from (@p stream, @p mods) at the stored positions,
 * every timing field from @p trace, and each delivery is stamped
 * with @p port.  The delivery buffer is acquired from @p arena when
 * one is given.
 */
void materializeEmits(const PortTrace &trace,
                      std::span<const Request> stream,
                      const ModuleId *mods, DeliveryArena *arena,
                      AccessResult &result, unsigned port = 0);

/** Copies only the scalar aggregates of a position-form outcome
 *  into @p result, leaving result.deliveries untouched — the
 *  summary-only half of materializeEmits(). */
void applyEmitSummary(const EmitSummary &summary,
                      AccessResult &result);

/** Outcome of a simultaneous multi-vector access. */
struct MultiPortResult
{
    /** Per-port results (latency, stalls, deliveries). */
    std::vector<AccessResult> ports;

    /** Cycles from the first issue to the last delivery overall
     *  (exclusive: the cycle after the last delivery); 0 when no
     *  element was delivered. */
    Cycle makespan = 0;

    /** True iff every port ran at its own minimum latency. */
    bool
    allConflictFree() const
    {
        for (const auto &p : ports) {
            if (!p.conflictFree)
                return false;
        }
        return true;
    }

    bool operator==(const MultiPortResult &o) const = default;
};

} // namespace cfva

#endif // CFVA_MEMSYS_BACKEND_H
