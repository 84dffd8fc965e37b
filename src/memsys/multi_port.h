/**
 * @file
 * Per-cycle multi-port backend: several vectors accessed
 * simultaneously, stepped one cycle at a time.
 *
 * The paper's conclusions name this as future work: "several
 * vectors ... accessed simultaneously, either in a single processor
 * with several memory ports or in a multiprocessor".  P ports each
 * issue one request per cycle from an independent stream (any
 * ordering) into the shared modules, and each port has its own
 * return bus.  Modules and their buffers are shared, so inter-port
 * interference emerges naturally — and the Sec. 5E remark that
 * extra modules "can be justified by ... simultaneous access to
 * several vectors" becomes measurable (bench_multi_vector).
 *
 * The paper's own single-port memory (Figure 2) is the P = 1 case
 * of the same loop.
 *
 * This is the only simulator, and the oracle: every cycle is
 * stepped, so its semantics are auditable line by line.  The
 * analytic tier (theory/theory_backend.h) falls back to it, and
 * --tier audit and the differential suites hold the tier
 * bit-identical to it.
 */

#ifndef CFVA_MEMSYS_MULTI_PORT_H
#define CFVA_MEMSYS_MULTI_PORT_H

#include <span>
#include <vector>

#include "mapping/mapping.h"
#include "memsys/backend.h"
#include "memsys/module.h"

namespace cfva {

namespace detail {

/**
 * One port's input to the simulation loop: the request stream and
 * its premapped module sequence (modules[i] is the mapping of
 * requests[i].addr), both borrowed from the caller, so runSingle()
 * hands the caller's stream to the loop uncopied.
 */
struct PortView
{
    std::span<const Request> requests;
    const ModuleId *modules = nullptr;
};

/** Per-port issue bookkeeping of the simulation loop. */
struct PortState
{
    std::size_t next = 0; //!< next request index (= requests issued)
    bool started = false;
    Cycle firstIssue = 0;
    std::uint64_t stalls = 0;
    std::vector<Delivery> delivered;
};

} // namespace detail

/**
 * The cycle-stepped reference backend.  Each cycle: retire finished
 * services, drive every port's return bus (oldest ready head of
 * that port, lowest module on ties), start new services, then issue
 * at most one request per port — least-issued port first, so
 * contention for an input-buffer slot alternates among the
 * contenders (a cycle-parity rotation would alias with the service
 * period and starve one port).
 */
class PerCycleMultiPort final : public MemoryBackend
{
  public:
    /**
     * @param cfg   memory shape (modules, T, buffers); rejected
     *              through MemConfig::validate()
     * @param map   shared address mapping; must produce module
     *              numbers < cfg.modules()
     */
    PerCycleMultiPort(const MemConfig &cfg, const ModuleMapping &map);

    MultiPortResult
    run(const std::vector<std::vector<Request>> &streams,
        DeliveryArena *arena = nullptr) override;

    AccessResult
    runSingle(const std::vector<Request> &stream,
              DeliveryArena *arena = nullptr) override;

    /**
     * runSingle() over a stream whose module assignments were
     * already computed (modules[i] = mapping of stream[i].addr,
     * typically by a BitSlicedMapper), skipping the internal premap
     * pass: the theory tier hands over the premap its analysis
     * already built instead of mapping every element twice.
     */
    AccessResult
    runSingleMapped(const std::vector<Request> &stream,
                    const ModuleId *modules,
                    DeliveryArena *arena = nullptr);

    /**
     * run() over streams whose module assignments were already
     * computed: @p modules holds at least streams.size() sequences
     * and modules[p][i] is the mapping of streams[p][i].addr.  The
     * multi-port counterpart of runSingleMapped().
     */
    MultiPortResult
    runMapped(const std::vector<std::vector<Request>> &streams,
              const std::vector<std::vector<ModuleId>> &modules,
              DeliveryArena *arena = nullptr);

  private:
    /** The simulation loop every entry point runs, for any P. */
    MultiPortResult simulate(std::span<const detail::PortView> views,
                             DeliveryArena *arena);

    MemConfig cfg_;
    const ModuleMapping &map_;
    BitSlicedMapper slicer_;

    // Persistent across run() calls so a cached backend stops
    // paying the per-access construction cost (module array with
    // its buffers, issue and premap scratch).  Every run() resets
    // what it uses; results are bit-identical to a freshly
    // constructed backend.
    std::vector<MemoryModule> modules_;
    std::vector<unsigned> order_; //!< issue-priority scratch
    std::vector<detail::PortState> ports_; //!< per-port scratch
    std::vector<std::vector<ModuleId>> portMods_; //!< premap scratch
    std::vector<detail::PortView> views_; //!< runMapped() scratch
};

/**
 * Convenience wrapper retained from the pre-backend API: builds a
 * PerCycleMultiPort and runs @p streams in one call.
 *
 * @param cfg      memory shape (modules, T, buffers)
 * @param map      shared address mapping
 * @param streams  one request stream per port (P = streams.size())
 */
MultiPortResult
simulateMultiPort(const MemConfig &cfg, const ModuleMapping &map,
                  const std::vector<std::vector<Request>> &streams);

/**
 * The single-port convenience wrapper: simulates @p stream, issued
 * one request per cycle from cycle 0, on a fresh PerCycleMultiPort
 * (the P = 1 case).
 *
 * @param arena  optional recycler the result's delivery buffer is
 *               acquired from (timing-neutral)
 */
AccessResult simulateAccess(const MemConfig &cfg,
                            const ModuleMapping &map,
                            const std::vector<Request> &stream,
                            DeliveryArena *arena = nullptr);

} // namespace cfva

#endif // CFVA_MEMSYS_MULTI_PORT_H
