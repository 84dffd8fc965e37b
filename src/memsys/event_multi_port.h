/**
 * @file
 * Event-driven multi-port backend.
 *
 * Simulates exactly the model of memsys/multi_port.h — shared
 * modules, per-port return buses, least-issued-first issue rotation,
 * same per-cycle step order (retire, return buses in port order,
 * service start, issue) — but advances simulated time directly to
 * the next instant at which any state can change instead of ticking
 * every cycle.  Between events the only activity is stalled ports
 * retrying issues against unchanged (full) input buffers, which the
 * engine accounts for with one subtraction per port.
 *
 * The produced MultiPortResult is bit-identical to
 * PerCycleMultiPort::run on every stream set: identical delivery
 * records (all five timestamps and the port tag), identical
 * per-port stall counts, identical aggregates.  The per-cycle model
 * stays in-tree as the oracle; tests/test_engine_differential.cc
 * (P = 1) and tests/test_multi_port_differential.cc hold the two to
 * that contract over randomized scenario grids.
 *
 * Why it is faster: the per-cycle loop scans all M modules several
 * times per cycle.  This engine touches only the modules named by
 * an event (O(log M) heap work each) and skips the dead cycles
 * entirely — on heavily conflicting streams, where the per-cycle
 * model burns ~L*T iterations, the event count stays O(L).  Two
 * further devices serve P > 1 and cost nothing at P = 1:
 *
 * - Per-port output heaps: the per-cycle model scans all M module
 *   output heads once per port per cycle (O(P*M)).  Here a module
 *   with a nonempty output buffer lives in exactly one of P
 *   ModuleEventHeaps — the heap of the port its current head
 *   belongs to — so each port's return-bus arbitration is a heap
 *   pop, and a pop that reveals a head for a later port re-files
 *   the module in that port's heap within the same cycle (exactly
 *   the visibility order of the sequential per-cycle scan).
 * - Port-rotation issue events: issue priority depends only on the
 *   per-port issued counts, which change only on a cycle that
 *   issued, so the least-issued-first rotation is re-sorted after
 *   such a cycle rather than every cycle.
 */

#ifndef CFVA_MEMSYS_EVENT_MULTI_PORT_H
#define CFVA_MEMSYS_EVENT_MULTI_PORT_H

#include <cstdint>
#include <span>
#include <vector>

#include "mapping/mapping.h"
#include "memsys/backend.h"
#include "memsys/event_queue.h"
#include "memsys/module.h"

namespace cfva {

/** Event-driven twin of PerCycleMultiPort; bit-identical results. */
class EventDrivenMultiPort final : public MemoryBackend
{
  public:
    /**
     * @param cfg   memory shape (modules, T, buffers)
     * @param map   shared address mapping; must produce module
     *              numbers < cfg.modules()
     */
    EventDrivenMultiPort(const MemConfig &cfg,
                         const ModuleMapping &map);

    MultiPortResult
    run(const std::vector<std::vector<Request>> &streams,
        DeliveryArena *arena = nullptr) override;

    AccessResult
    runSingle(const std::vector<Request> &stream,
              DeliveryArena *arena = nullptr) override;

    /** runSingle() with caller-supplied module assignments. */
    AccessResult
    runSingleMapped(const std::vector<Request> &stream,
                    const ModuleId *modules,
                    DeliveryArena *arena = nullptr) override;

    /** run() with caller-supplied module assignments. */
    MultiPortResult
    runMapped(const std::vector<std::vector<Request>> &streams,
              const std::vector<std::vector<ModuleId>> &modules,
              DeliveryArena *arena = nullptr) override;

    const char *name() const override { return "event-driven"; }

  private:
    /** The simulation loop every entry point runs, for any P. */
    MultiPortResult simulate(std::span<const detail::PortView> views,
                             DeliveryArena *arena);

    MemConfig cfg_;
    const ModuleMapping &map_;
    BitSlicedMapper slicer_;

    // Persistent across run() calls so a cached backend stops
    // paying the per-access construction cost: the module array,
    // the event heaps, and the issue scratch survive between
    // accesses and are reset (cheaply — everything is empty after
    // a drained run) at the top of each run().  Per-port state is
    // sized in place, so one instance serves every port count.
    std::vector<MemoryModule> modules_;
    ModuleEventHeap retire_;
    std::vector<ModuleEventHeap> outHeads_;
    ArrivalQueue arrivals_;
    std::vector<std::uint8_t> retireBlocked_;
    std::vector<ModuleId> startable_;
    std::vector<unsigned> order_;
    std::vector<detail::PortState> ports_; //!< per-port scratch
    std::vector<std::vector<ModuleId>> portMods_; //!< premap scratch
    std::vector<detail::PortView> views_; //!< runMapped() scratch
};

/**
 * Convenience wrapper: build an EventDrivenMultiPort and run
 * @p streams through @p map in one call.
 */
MultiPortResult
simulateMultiPortEventDriven(
    const MemConfig &cfg, const ModuleMapping &map,
    const std::vector<std::vector<Request>> &streams);

} // namespace cfva

#endif // CFVA_MEMSYS_EVENT_MULTI_PORT_H
