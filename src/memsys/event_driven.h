/**
 * @file
 * Event-driven memory-system engine.
 *
 * Simulates exactly the model of memsys/memory_system.h — same
 * modules, same buffers, same per-cycle step order (retire, return
 * bus, service start, processor issue) — but advances simulated
 * time directly to the next instant at which any state can change
 * instead of ticking every cycle.  Between events the only activity
 * is the processor retrying a stalled issue against an unchanged
 * input buffer, which the engine accounts for in one subtraction.
 *
 * The produced AccessResult is bit-identical to MemorySystem::run
 * on every stream: identical delivery records (all five timestamps),
 * identical stall counts, identical aggregates.  The per-cycle model
 * stays in-tree as the oracle; tests/test_engine_differential.cc
 * holds the two to that contract over randomized scenario grids.
 *
 * Why it is faster: the per-cycle loop scans all M modules two to
 * three times per cycle.  This engine touches only the modules named
 * by an event (O(log M) heap work each), and skips the dead cycles
 * entirely — on heavily conflicting streams, where the per-cycle
 * model burns ~L*T iterations, the event count stays O(L).
 */

#ifndef CFVA_MEMSYS_EVENT_DRIVEN_H
#define CFVA_MEMSYS_EVENT_DRIVEN_H

#include <cstdint>
#include <vector>

#include "mapping/bitslice.h"
#include "mapping/mapping.h"
#include "memsys/event_queue.h"
#include "memsys/memory_system.h"
#include "memsys/module.h"
#include "memsys/request.h"

namespace cfva {

class DeliveryArena;

/**
 * Event-driven twin of MemorySystem.  Same construction contract,
 * same run() semantics, bit-identical results.
 */
class EventDrivenMemorySystem
{
  public:
    /**
     * @param cfg   subsystem shape
     * @param map   address mapping; must produce module numbers
     *              < cfg.modules()
     */
    EventDrivenMemorySystem(const MemConfig &cfg,
                            const ModuleMapping &map);

    /**
     * Simulates the access of @p stream issued one request per
     * cycle starting at cycle 0; see MemorySystem::run.
     *
     * When @p arena is given, the result's delivery buffer is
     * acquired from it instead of freshly allocated — tight sweeps
     * recycle buffers by releasing them back after consumption.
     * @p premapped optionally supplies caller-computed module
     * assignments (premapped[i] = mapping of stream[i].addr);
     * otherwise the stream is premapped here, bit-sliced when the
     * mapping exposes GF(2) rows.
     */
    AccessResult run(const std::vector<Request> &stream,
                     DeliveryArena *arena = nullptr,
                     const ModuleId *premapped = nullptr);

    const MemConfig &config() const { return cfg_; }

  private:
    MemConfig cfg_;
    const ModuleMapping &map_;
    BitSlicedMapper slicer_;
    std::vector<MemoryModule> modules_;
    std::vector<ModuleId> mods_; //!< premap scratch, reused per run

    /** Pending service completions, keyed by ready cycle. */
    ModuleEventHeap retire_;

    /** Output-buffer heads, keyed by the head's ready cycle —
     *  popping the minimum IS the return-bus arbitration. */
    ModuleEventHeap outputs_;

    /** In-flight request-bus arrivals, in issue order. */
    ArrivalQueue arrivals_;

    /** Modules whose finished service waits on a full output
     *  buffer; re-armed on the next delivery from that module. */
    std::vector<std::uint8_t> retireBlocked_;

    /** Scratch: modules that may start a service this cycle. */
    std::vector<ModuleId> startable_;
};

/**
 * Convenience wrapper: build an EventDrivenMemorySystem and run
 * @p stream through @p map in one call.
 */
AccessResult simulateAccessEventDriven(const MemConfig &cfg,
                                       const ModuleMapping &map,
                                       const std::vector<Request> &stream,
                                       DeliveryArena *arena = nullptr);

} // namespace cfva

#endif // CFVA_MEMSYS_EVENT_DRIVEN_H
