#include "memsys/event_driven.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "memsys/backend.h"

namespace cfva {

EventDrivenMemorySystem::EventDrivenMemorySystem(
    const MemConfig &cfg, const ModuleMapping &map)
    : cfg_(cfg), map_(map), slicer_(map),
      retire_(cfg.modules()), outputs_(cfg.modules()),
      retireBlocked_(cfg.modules(), 0)
{
    cfva_assert(map.moduleBits() == cfg.m,
                "mapping has 2^", map.moduleBits(),
                " modules but config expects 2^", cfg.m);
    modules_.reserve(cfg.modules());
    for (ModuleId i = 0; i < cfg.modules(); ++i)
        modules_.emplace_back(i, cfg.serviceCycles(), cfg.inputBuffers,
                              cfg.outputBuffers);
    startable_.reserve(cfg.modules());
}

AccessResult
EventDrivenMemorySystem::run(const std::vector<Request> &stream,
                             DeliveryArena *arena,
                             const ModuleId *premapped)
{
    // Self-resetting: one instance serves many accesses (the
    // backend cache reuses engines across a whole sweep).  After a
    // drained run everything below is empty already, so the reset
    // costs O(M) trivial clears.
    for (auto &mod : modules_)
        mod.reset();
    retire_.clear();
    outputs_.clear();
    arrivals_.clear();
    std::fill(retireBlocked_.begin(), retireBlocked_.end(),
              std::uint8_t{0});

    AccessResult result;
    if (arena)
        result.deliveries = arena->acquire(stream.size());
    else
        result.deliveries.reserve(stream.size());
    if (stream.empty()) {
        result.conflictFree = true;
        return result;
    }

    // Premap the whole stream before the event loop: bit-sliced for
    // linear mappings, scalar otherwise.
    const ModuleId *mods = premapped;
    if (!mods) {
        mods_.resize(stream.size());
        slicer_.mapWith(
            [&stream](std::size_t i) { return stream[i].addr; },
            stream.size(), mods_.data());
        mods = mods_.data();
    }

    const Cycle t_cycles = cfg_.serviceCycles();
    std::size_t next = 0; // next request to issue

    auto targetModule = [&]() -> ModuleId {
        const ModuleId target = mods[next];
        cfva_assert(target < cfg_.modules(),
                    "mapping produced module ", target,
                    " outside 2^", cfg_.m);
        return target;
    };

    // Same wedge guard as the per-cycle model.
    const Cycle limit =
        (static_cast<Cycle>(stream.size()) + 4) * (t_cycles + 2) + 64;

    const Cycle never = std::numeric_limits<Cycle>::max();

    for (Cycle now = 0;; /* advanced at the bottom */) {
        cfva_assert(now <= limit, "simulation wedged at cycle ", now);
        startable_.clear();

        // 1. Retire finished services into output buffers.  A full
        //    output buffer parks the module on retireBlocked_ until
        //    a delivery from that module frees a slot.
        while (!retire_.empty() && retire_.top().time <= now) {
            const ModuleEvent e = retire_.pop();
            MemoryModule &mod = modules_[e.module];
            const Delivery *head_before = mod.outputHead();
            mod.retire(now);
            if (mod.busy()) {
                retireBlocked_[e.module] = 1;
                continue;
            }
            if (!head_before)
                outputs_.push(e.module, mod.outputHead()->ready);
            startable_.push_back(e.module);
        }

        // 2. Return bus: at most one delivery per cycle, oldest
        //    ready first, lowest module number on ties — the heap
        //    order of `outputs_`.
        if (!outputs_.empty() && outputs_.top().time <= now) {
            const ModuleEvent e = outputs_.pop();
            MemoryModule &mod = modules_[e.module];
            Delivery d = mod.popOutput();
            cfva_assert(d.ready == e.time,
                        "output head desynchronized on module ",
                        e.module);
            d.delivered = now;
            result.lastDelivery = now;
            result.deliveries.push_back(d);
            if (const Delivery *head = mod.outputHead())
                outputs_.push(e.module, head->ready);
            if (retireBlocked_[e.module]) {
                // The freed slot lets the parked service retire at
                // the next cycle's step 1 (this cycle's retire step
                // has already passed, exactly as in the per-cycle
                // model).
                retireBlocked_[e.module] = 0;
                retire_.push(e.module, now + 1);
            }
        }

        // 3. Start new services.  Only two event classes can make a
        //    start possible: a retirement this cycle (handled above)
        //    or a request-bus arrival this cycle.
        while (!arrivals_.empty() && arrivals_.front().time <= now) {
            startable_.push_back(arrivals_.front().module);
            arrivals_.pop();
        }
        for (ModuleId id : startable_) {
            MemoryModule &mod = modules_[id];
            if (mod.busy())
                continue;
            mod.tryStart(now);
            if (mod.busy())
                retire_.push(id, now + t_cycles);
        }

        // 4. Processor: attempt to issue one request.
        if (next < stream.size()) {
            MemoryModule &mod = modules_[targetModule()];
            if (mod.canAccept()) {
                Delivery d;
                d.addr = stream[next].addr;
                d.element = stream[next].element;
                d.module = targetModule();
                d.issued = now;
                d.arrived = now + 1; // 1-cycle request bus
                mod.accept(d);
                arrivals_.push(d.module, d.arrived);
                if (next == 0)
                    result.firstIssue = now;
                ++next;
            } else {
                ++result.stallCycles;
            }
        }

        if (next == stream.size()
            && result.deliveries.size() == stream.size()) {
            break;
        }

        // Advance to the next cycle at which any state can change.
        Cycle wake = never;
        if (!outputs_.empty()) {
            // A pending output delivers next cycle.
            wake = now + 1;
        } else {
            if (!retire_.empty())
                wake = std::min(wake,
                                std::max(retire_.top().time, now + 1));
            if (!arrivals_.empty())
                wake = std::min(wake, std::max(arrivals_.front().time,
                                               now + 1));
        }
        if (next < stream.size()
            && modules_[targetModule()].canAccept()) {
            // The pending issue succeeds next cycle.
            wake = now + 1;
        }
        cfva_assert(wake != never,
                    "no pending events but the access has not "
                    "drained (next=", next, ", delivered=",
                    result.deliveries.size(), ")");

        // Every skipped cycle is a processor retry against an
        // unchanged (full) input buffer: account the stalls in bulk.
        if (next < stream.size())
            result.stallCycles += wake - now - 1;
        now = wake;
    }

    result.latency = result.lastDelivery - result.firstIssue + 1;

    const Cycle min_latency =
        static_cast<Cycle>(stream.size()) + t_cycles + 1;
    result.conflictFree =
        result.stallCycles == 0 && result.latency == min_latency;
    return result;
}

AccessResult
simulateAccessEventDriven(const MemConfig &cfg,
                          const ModuleMapping &map,
                          const std::vector<Request> &stream,
                          DeliveryArena *arena)
{
    EventDrivenMemorySystem sys(cfg, map);
    return sys.run(stream, arena);
}

} // namespace cfva
