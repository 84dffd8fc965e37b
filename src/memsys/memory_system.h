/**
 * @file
 * Cycle-accurate multi-module memory system (paper Figure 2).
 *
 * M = 2^m modules behind a 1-cycle request bus and a single return
 * bus that delivers at most one element per cycle.  The processor
 * issues one request per cycle unless the target module's input
 * buffer is full, in which case it stalls and retries — exactly the
 * processor model the paper's latency arithmetic assumes.
 */

#ifndef CFVA_MEMSYS_MEMORY_SYSTEM_H
#define CFVA_MEMSYS_MEMORY_SYSTEM_H

#include <cstdint>
#include <vector>

#include "mapping/bitslice.h"
#include "mapping/mapping.h"
#include "memsys/module.h"
#include "memsys/request.h"

namespace cfva {

class DeliveryArena;

/** Static configuration of the memory subsystem. */
struct MemConfig
{
    unsigned m = 3;            //!< log2 module count (M = 2^m)
    unsigned t = 3;            //!< log2 service time (T = 2^t)
    unsigned inputBuffers = 1; //!< q, per-module input entries
    unsigned outputBuffers = 1; //!< q', per-module output entries

    ModuleId modules() const { return ModuleId{1} << m; }
    Cycle serviceCycles() const { return Cycle{1} << t; }

    /** True for the matched case M = T the paper starts from. */
    bool matched() const { return m == t; }
};

/**
 * The memory subsystem simulator.
 *
 * One instance simulates one vector access: construct, call run()
 * with the request stream (any ordering), read the AccessResult.
 * The simulator is deterministic; ties on the return bus resolve to
 * the oldest-ready element, then the lowest module number.
 */
class MemorySystem
{
  public:
    /**
     * @param cfg   subsystem shape
     * @param map   address mapping; must produce module numbers
     *              < cfg.modules()
     *
     * The engine is the plain stepped oracle: every cycle of every
     * access is simulated (the periodic closed form lives in the
     * analytic tier, theory/conflict_solver.h).
     */
    MemorySystem(const MemConfig &cfg, const ModuleMapping &map);

    /**
     * Simulates the access of @p stream issued one request per
     * cycle starting at cycle 0.
     *
     * The whole stream is premapped to module numbers before the
     * cycle loop (bit-sliced for linear mappings); pass
     * @p premapped to supply assignments computed by the caller
     * instead (premapped[i] must equal the mapping of
     * stream[i].addr).
     *
     * @param stream     requests in the desired temporal order
     * @param arena      optional recycler the result's delivery
     *                   buffer is acquired from (timing-neutral; the
     *                   records are identical either way)
     * @param premapped  optional caller-computed module assignments
     * @return timing of every element plus aggregate metrics
     */
    AccessResult run(const std::vector<Request> &stream,
                     DeliveryArena *arena = nullptr,
                     const ModuleId *premapped = nullptr);

    const MemConfig &config() const { return cfg_; }

  private:
    /** Delivers the oldest ready output entry over the return bus. */
    bool deliverOne(Cycle now, AccessResult &result);

    MemConfig cfg_;
    const ModuleMapping &map_;
    BitSlicedMapper slicer_;
    std::vector<MemoryModule> modules_;
    std::vector<ModuleId> mods_; //!< premap scratch, reused per run
};

/**
 * Convenience wrapper: build a MemorySystem and run @p stream
 * through @p map in one call.
 */
AccessResult simulateAccess(const MemConfig &cfg,
                            const ModuleMapping &map,
                            const std::vector<Request> &stream,
                            DeliveryArena *arena = nullptr);

} // namespace cfva

#endif // CFVA_MEMSYS_MEMORY_SYSTEM_H
