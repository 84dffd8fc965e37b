#include "memsys/event_multi_port.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace cfva {

using detail::PortState;

EventDrivenMultiPort::EventDrivenMultiPort(const MemConfig &cfg,
                                           const ModuleMapping &map)
    : cfg_(cfg), map_(map), slicer_(map), retire_(cfg.modules()),
      retireBlocked_(cfg.modules(), 0)
{
    cfva_assert(map.moduleBits() == cfg.m,
                "mapping has 2^", map.moduleBits(),
                " modules but config expects 2^", cfg.m);
    modules_.reserve(cfg.modules());
    for (ModuleId i = 0; i < cfg.modules(); ++i)
        modules_.emplace_back(i, cfg.serviceCycles(),
                              cfg.inputBuffers, cfg.outputBuffers);
    startable_.reserve(cfg.modules());
}

AccessResult
EventDrivenMultiPort::runSingle(const std::vector<Request> &stream,
                                DeliveryArena *arena)
{
    detail::premapPorts(slicer_, {&stream, 1}, portMods_);
    return runSingleMapped(stream, portMods_[0].data(), arena);
}

AccessResult
EventDrivenMultiPort::runSingleMapped(
    const std::vector<Request> &stream, const ModuleId *modules,
    DeliveryArena *arena)
{
    const detail::PortView view{stream, modules};
    return std::move(simulate({&view, 1}, arena).ports[0]);
}

MultiPortResult
EventDrivenMultiPort::run(
    const std::vector<std::vector<Request>> &streams,
    DeliveryArena *arena)
{
    // Premap every stream before the simulation loop (bit-sliced
    // for linear mappings); issue attempts just index the result.
    detail::premapPorts(slicer_, streams, portMods_);
    return runMapped(streams, portMods_, arena);
}

MultiPortResult
EventDrivenMultiPort::runMapped(
    const std::vector<std::vector<Request>> &streams,
    const std::vector<std::vector<ModuleId>> &mods,
    DeliveryArena *arena)
{
    detail::viewPorts(streams, mods, views_);
    return simulate(views_, arena);
}

MultiPortResult
EventDrivenMultiPort::simulate(std::span<const detail::PortView> views,
                               DeliveryArena *arena)
{
    const unsigned n_ports = static_cast<unsigned>(views.size());
    const Cycle t_cycles = cfg_.serviceCycles();

    // Reset the persistent simulation state (all empty after a
    // drained run) and size the per-port scratch for this access.
    std::vector<MemoryModule> &modules = modules_;
    for (auto &mod : modules)
        mod.reset();

    // Member scratch: clear() + resize() value-initializes the
    // PortStates while keeping the vector's own capacity.
    ports_.clear();
    ports_.resize(n_ports);
    std::vector<PortState> &ports = ports_;

    std::size_t total = 0;
    for (unsigned p = 0; p < n_ports; ++p) {
        const std::size_t len = views[p].requests.size();
        total += len;
        if (arena)
            ports[p].delivered = arena->acquire(len);
        else
            ports[p].delivered.reserve(len);
    }
    std::size_t delivered_total = 0;

    /** Pending service completions, keyed by ready cycle. */
    ModuleEventHeap &retire = retire_;
    retire.clear();

    /**
     * Per-port return-bus heaps.  A module with a nonempty output
     * buffer lives in exactly one: the heap of the port its
     * current head belongs to, keyed by the head's ready cycle.
     * Popping heap p's minimum IS port p's return-bus arbitration
     * (oldest ready first, lowest module number on ties).
     */
    std::vector<ModuleEventHeap> &outHeads = outHeads_;
    for (auto &heap : outHeads)
        heap.clear();
    while (outHeads.size() < n_ports)
        outHeads.emplace_back(cfg_.modules());

    /** In-flight request-bus arrivals, in issue order (several
     *  ports may issue in one cycle; times stay nondecreasing). */
    ArrivalQueue &arrivals = arrivals_;
    arrivals.clear();

    /** Modules whose finished service waits on a full output
     *  buffer; re-armed on the next delivery from that module. */
    std::vector<std::uint8_t> &retireBlocked = retireBlocked_;
    std::fill(retireBlocked.begin(), retireBlocked.end(),
              std::uint8_t{0});

    /** Scratch: modules that may start a service this cycle. */
    std::vector<ModuleId> &startable = startable_;

    /** Issue priority, least-issued port first.  Every count is 0
     *  at the start, so the identity order is already sorted. */
    order_.resize(n_ports);
    std::vector<unsigned> &order = order_;
    for (unsigned p = 0; p < n_ports; ++p)
        order[p] = p;
    bool issued = false; //!< some port issued on the last event cycle

    /** Modules filed in any port's output heap, so the wake step
     *  tests one counter instead of P heaps. */
    std::size_t filed = 0;

    // Each port's issue target comes straight from the premapped
    // stream.
    auto targetModule = [&](unsigned p) -> ModuleId {
        const ModuleId target = views[p].modules[ports[p].next];
        cfva_assert(target < cfg_.modules(),
                    "mapping produced module ", target,
                    " outside 2^", cfg_.m);
        return target;
    };

    const Cycle limit = detail::wedgeLimit(cfg_, total, n_ports);
    const Cycle never = std::numeric_limits<Cycle>::max();

    Cycle makespan = 0;
    for (Cycle now = 0; delivered_total < total;
         /* advanced at the bottom */) {
        cfva_assert(now <= limit, "multi-port simulation wedged at "
                    "cycle ", now);
        startable.clear();

        // 1. Retire finished services into output buffers.  A full
        //    output buffer parks the module on retireBlocked until
        //    a delivery from that module frees a slot.
        while (!retire.empty() && retire.top().time <= now) {
            const ModuleEvent e = retire.pop();
            MemoryModule &mod = modules[e.module];
            const Delivery *head_before = mod.outputHead();
            mod.retire(now);
            if (mod.busy()) {
                retireBlocked[e.module] = 1;
                continue;
            }
            if (!head_before) {
                const Delivery *head = mod.outputHead();
                outHeads[head->port].push(e.module, head->ready);
                ++filed;
            }
            startable.push_back(e.module);
        }

        // 2. Per-port return buses, in port order: popping heap p's
        //    minimum delivers port p's oldest ready head.  A pop
        //    that reveals a head for a later port files the module
        //    in that port's heap in time for its turn this cycle —
        //    the same visibility the per-cycle scan has.
        for (unsigned p = 0; p < n_ports; ++p) {
            if (outHeads[p].empty() || outHeads[p].top().time > now)
                continue;
            const ModuleEvent e = outHeads[p].pop();
            --filed;
            MemoryModule &mod = modules[e.module];
            Delivery d = mod.popOutput();
            cfva_assert(d.ready == e.time && d.port == p,
                        "output head desynchronized on module ",
                        e.module);
            d.delivered = now;
            ports[p].delivered.push_back(d);
            ++delivered_total;
            makespan = now;
            if (const Delivery *head = mod.outputHead()) {
                outHeads[head->port].push(e.module, head->ready);
                ++filed;
            }
            if (retireBlocked[e.module]) {
                // The freed slot lets the parked service retire at
                // the next cycle's step 1 (this cycle's retire step
                // has already passed, as in the per-cycle model).
                retireBlocked[e.module] = 0;
                retire.push(e.module, now + 1);
            }
        }

        // 3. Start new services.  Only a retirement (above) or a
        //    request-bus arrival this cycle can make one possible.
        while (!arrivals.empty() && arrivals.front().time <= now) {
            startable.push_back(arrivals.front().module);
            arrivals.pop();
        }
        for (ModuleId id : startable) {
            MemoryModule &mod = modules[id];
            if (mod.busy())
                continue;
            mod.tryStart(now);
            if (mod.busy())
                retire.push(id, now + t_cycles);
        }

        // 4. Issue: least-issued port first (identical rotation to
        //    the per-cycle loop).  The sort keys are the per-port
        //    issued counts, so only a cycle that issued can change
        //    the order.
        if (issued)
            detail::rankPorts(order, ports);
        issued = false;
        for (unsigned k = 0; k < n_ports; ++k) {
            const unsigned p = order[k];
            PortState &ps = ports[p];
            if (ps.next >= views[p].requests.size())
                continue;
            const Request &req = views[p].requests[ps.next];
            const ModuleId tgt = targetModule(p);
            MemoryModule &mod = modules[tgt];
            if (mod.canAccept()) {
                Delivery d;
                d.addr = req.addr;
                d.element = req.element;
                d.module = tgt;
                d.port = p;
                d.issued = now;
                d.arrived = now + 1;
                mod.accept(d);
                arrivals.push(tgt, d.arrived);
                if (!ps.started) {
                    ps.started = true;
                    ps.firstIssue = now;
                }
                ++ps.next;
                issued = true;
            } else {
                ++ps.stalls;
            }
        }

        if (delivered_total == total)
            break;

        // Advance to the next cycle at which any state can change.
        Cycle wake = never;
        if (filed != 0) {
            // A pending output delivers next cycle.
            wake = now + 1;
        } else {
            if (!retire.empty())
                wake = std::min(wake,
                                std::max(retire.top().time, now + 1));
            if (!arrivals.empty())
                wake = std::min(wake, std::max(arrivals.front().time,
                                               now + 1));
        }
        if (wake > now + 1) {
            for (unsigned p = 0; p < n_ports; ++p) {
                if (ports[p].next < views[p].requests.size()
                    && modules[targetModule(p)].canAccept()) {
                    // This port's pending issue succeeds next cycle.
                    wake = now + 1;
                    break;
                }
            }
        }
        cfva_assert(wake != never,
                    "no pending events but the access has not "
                    "drained (delivered ", delivered_total, " of ",
                    total, ")");

        // Every skipped cycle is, for each unfinished port, one
        // issue retry against an unchanged (full) input buffer:
        // account the stalls in bulk.
        if (wake > now + 1) {
            for (unsigned p = 0; p < n_ports; ++p) {
                if (ports[p].next < views[p].requests.size())
                    ports[p].stalls += wake - now - 1;
            }
        }
        now = wake;
    }

    return detail::assemblePortResults(cfg_, views, ports, makespan);
}

MultiPortResult
simulateMultiPortEventDriven(
    const MemConfig &cfg, const ModuleMapping &map,
    const std::vector<std::vector<Request>> &streams)
{
    EventDrivenMultiPort backend(cfg, map);
    return backend.run(streams);
}

} // namespace cfva
