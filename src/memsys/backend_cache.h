/**
 * @file
 * Per-worker cache of TheoryBackend instances.
 *
 * The sweep hot path used to rebuild a backend — modules with their
 * buffer deques, issue scratch — for every simulated access.  The
 * backends are stateless across accesses (they self-reset), so one
 * instance per (memory shape, mapping) can serve every scenario a
 * worker executes.  The cache owns those instances and hands out
 * references; hit/miss counters make the saved setup cost
 * observable (cfva_sweep --bench reports them).
 *
 * One entry serves both tiers: the theory tier runs the
 * TheoryBackend, and the sim tier runs its embedded simulator
 * (TheoryBackend::fallback()), whose plain run()/runSingle() read
 * no solver or memo state — so TierPolicy::AuditBoth holds one
 * backend per (shape, mapping) and its sim arm still steps every
 * access from scratch.
 *
 * Not thread-safe: use one cache per worker thread, exactly like
 * DeliveryArena.  The mappings passed in must outlive the cache —
 * in the sweep engine both live in the same WorkerArena, with the
 * cache declared after the units so it is destroyed first.
 *
 * The port count is deliberately NOT part of the key: the backends
 * size their per-port scratch in place on each run, so a single
 * instance serves every port count of a mapping — strictly more
 * reuse than a (ports, config) key would allow.
 */

#ifndef CFVA_MEMSYS_BACKEND_CACHE_H
#define CFVA_MEMSYS_BACKEND_CACHE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "memsys/backend.h"
#include "theory/theory_backend.h"

namespace cfva {

/** Aggregate hit/miss counters, mergeable across workers. */
struct BackendCacheStats
{
    std::uint64_t hits = 0;   //!< lookups served by a live backend
    std::uint64_t misses = 0; //!< lookups that built a new backend

    BackendCacheStats &
    operator+=(const BackendCacheStats &o)
    {
        hits += o.hits;
        misses += o.misses;
        return *this;
    }

    bool operator==(const BackendCacheStats &o) const = default;
};

/** Owns and reuses TheoryBackend instances for one worker. */
class BackendCache
{
  public:
    /**
     * The backend over @p cfg and @p map — the analytic tier with
     * its per-cycle fallback — built on first use and reused
     * afterwards.  @p map must outlive the cache.  The unnamed
     * EngineKind parameter is ignored: kept while sweepbench names
     * it; drop at the next benchmark PR.
     */
    TheoryBackend &theoryBackendFor(EngineKind, const MemConfig &cfg,
                                    const ModuleMapping &map);

    const BackendCacheStats &stats() const { return stats_; }

    /** Summed collapse/memo counters of every cached backend. */
    FastPathStats fastPathStats() const;

    /** Distinct backends currently cached. */
    std::size_t size() const { return entries_.size(); }

    /** Drops every cached backend; counters keep accumulating. */
    void clear() { entries_.clear(); }

  private:
    struct Key
    {
        unsigned m = 0;
        unsigned t = 0;
        unsigned inputBuffers = 0;
        unsigned outputBuffers = 0;
        const ModuleMapping *map = nullptr;

        bool operator==(const Key &o) const = default;
    };

    struct Entry
    {
        Key key;
        std::unique_ptr<TheoryBackend> backend;
    };

    // Linear scan with move-to-front: a worker touches a handful
    // of mappings per sweep, and the hot lookups repeat the front
    // entry, so a hash map would only add cost.
    std::vector<Entry> entries_;
    BackendCacheStats stats_;
};

} // namespace cfva

#endif // CFVA_MEMSYS_BACKEND_CACHE_H
