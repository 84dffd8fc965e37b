#include "memsys/multi_port.h"

#include <limits>
#include <utility>

#include "common/logging.h"

namespace cfva {

using detail::PortState;

PerCycleMultiPort::PerCycleMultiPort(const MemConfig &cfg,
                                     const ModuleMapping &map)
    : cfg_(cfg), map_(map), slicer_(map)
{
    cfva_assert(map.moduleBits() == cfg.m,
                "mapping has 2^", map.moduleBits(),
                " modules but config expects 2^", cfg.m);
    modules_.reserve(cfg.modules());
    for (ModuleId i = 0; i < cfg.modules(); ++i)
        modules_.emplace_back(i, cfg.serviceCycles(),
                              cfg.inputBuffers, cfg.outputBuffers);
}

AccessResult
PerCycleMultiPort::runSingle(const std::vector<Request> &stream,
                             DeliveryArena *arena)
{
    detail::premapPorts(slicer_, {&stream, 1}, portMods_);
    return runSingleMapped(stream, portMods_[0].data(), arena);
}

AccessResult
PerCycleMultiPort::runSingleMapped(const std::vector<Request> &stream,
                                   const ModuleId *modules,
                                   DeliveryArena *arena)
{
    const detail::PortView view{stream, modules};
    return std::move(simulate({&view, 1}, arena).ports[0]);
}

MultiPortResult
PerCycleMultiPort::run(const std::vector<std::vector<Request>> &streams,
                       DeliveryArena *arena)
{
    // Premap every stream before the simulation loop (bit-sliced
    // for linear mappings); issue attempts just index the result.
    detail::premapPorts(slicer_, streams, portMods_);
    return runMapped(streams, portMods_, arena);
}

MultiPortResult
PerCycleMultiPort::runMapped(
    const std::vector<std::vector<Request>> &streams,
    const std::vector<std::vector<ModuleId>> &mods,
    DeliveryArena *arena)
{
    detail::viewPorts(streams, mods, views_);
    return simulate(views_, arena);
}

MultiPortResult
PerCycleMultiPort::simulate(std::span<const detail::PortView> views,
                            DeliveryArena *arena)
{
    const unsigned n_ports = static_cast<unsigned>(views.size());
    std::vector<MemoryModule> &modules = modules_;
    for (auto &mod : modules)
        mod.reset();
    order_.resize(n_ports);
    std::vector<unsigned> &order = order_;
    for (unsigned p = 0; p < n_ports; ++p)
        order[p] = p;

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

    const Cycle limit = detail::wedgeLimit(cfg_, total, n_ports);

    // Aggregate occupancy, maintained from the modules' returns, so
    // the whole-array scans below can be skipped on quiet cycles.
    unsigned busy = 0;
    unsigned queued = 0;
    unsigned inOutput = 0;

    Cycle makespan = 0;
    for (Cycle now = 0; delivered_total < total; ++now) {
        cfva_assert(now <= limit, "multi-port simulation wedged at "
                    "cycle ", now);

        // 1. Retire finished services.
        if (busy != 0) {
            for (auto &mod : modules) {
                if (mod.retire(now)) {
                    --busy;
                    ++inOutput;
                }
            }
        }

        // 2. Per-port return buses: each delivers its own oldest
        //    ready element.  Scanning output heads only is correct
        //    because module outputs drain in completion order.
        if (inOutput != 0) {
            for (unsigned p = 0; p < n_ports; ++p) {
                MemoryModule *best = nullptr;
                Cycle best_ready = std::numeric_limits<Cycle>::max();
                for (auto &mod : modules) {
                    const Delivery *head = mod.outputHead();
                    if (head && head->port == p
                        && head->ready < best_ready) {
                        best = &mod;
                        best_ready = head->ready;
                    }
                }
                if (best) {
                    Delivery d = best->popOutput();
                    --inOutput;
                    d.delivered = now;
                    ports[p].delivered.push_back(d);
                    ++delivered_total;
                    makespan = now;
                }
            }
        }

        // 3. Start new services.
        if (queued != 0) {
            for (auto &mod : modules) {
                if (mod.tryStart(now)) {
                    --queued;
                    ++busy;
                }
            }
        }

        // 4. Issue: least-issued port first.
        detail::rankPorts(order, ports);
        for (unsigned k = 0; k < n_ports; ++k) {
            const unsigned p = order[k];
            PortState &ps = ports[p];
            const detail::PortView &view = views[p];
            if (ps.next >= view.requests.size())
                continue;
            const Request &req = view.requests[ps.next];
            const ModuleId target = view.modules[ps.next];
            cfva_assert(target < cfg_.modules(),
                        "mapping produced module ", target,
                        " outside 2^", cfg_.m);
            MemoryModule &mod = modules[target];
            if (mod.canAccept()) {
                Delivery d;
                d.addr = req.addr;
                d.element = req.element;
                d.module = target;
                d.port = p;
                d.issued = now;
                d.arrived = now + 1;
                mod.accept(d);
                ++queued;
                if (!ps.started) {
                    ps.started = true;
                    ps.firstIssue = now;
                }
                ++ps.next;
            } else {
                ++ps.stalls;
            }
        }
    }

    return detail::assemblePortResults(cfg_, views, ports, makespan);
}

MultiPortResult
simulateMultiPort(const MemConfig &cfg, const ModuleMapping &map,
                  const std::vector<std::vector<Request>> &streams)
{
    PerCycleMultiPort backend(cfg, map);
    return backend.run(streams);
}

AccessResult
simulateAccess(const MemConfig &cfg, const ModuleMapping &map,
               const std::vector<Request> &stream,
               DeliveryArena *arena)
{
    PerCycleMultiPort backend(cfg, map);
    return backend.runSingle(stream, arena);
}

} // namespace cfva
