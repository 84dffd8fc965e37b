#include "memsys/multi_port.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "memsys/steady_state.h"

namespace cfva {

namespace {

using detail::PortState;

/**
 * Re-sorts @p order, a permutation of the port indices, into the
 * issue priority: least-issued port first, lowest port on ties.  The
 * order is total, so re-sorting the previous cycle's order equals
 * sorting the identity; one cycle's issues move a port only a few
 * places, hence insertion sort.
 */
void
rankPorts(std::vector<unsigned> &order,
          const std::vector<PortState> &ports)
{
    const auto before = [&ports](unsigned a, unsigned b) {
        return ports[a].next != ports[b].next
                   ? ports[a].next < ports[b].next
                   : a < b;
    };
    for (std::size_t k = 1; k < order.size(); ++k) {
        const unsigned p = order[k];
        std::size_t j = k;
        for (; j > 0 && before(p, order[j - 1]); --j)
            order[j] = order[j - 1];
        order[j] = p;
    }
}

/** Wedge guard for P serialized streams of @p total requests. */
Cycle
wedgeLimit(const MemConfig &cfg, std::size_t total, unsigned n_ports)
{
    return (static_cast<Cycle>(total) + 4 * n_ports)
               * (cfg.serviceCycles() + 2)
           + 64;
}

} // namespace

PerCycleMultiPort::PerCycleMultiPort(const MemConfig &cfg,
                                     const ModuleMapping &map)
    : cfg_(cfg), slicer_(map)
{
    cfg.validate();
    cfva_assert(map.moduleBits() == cfg.m,
                "mapping has 2^", map.moduleBits(),
                " modules but config expects 2^", cfg.m);
    modules_.reserve(cfg.modules());
    for (ModuleId i = 0; i < cfg.modules(); ++i)
        modules_.emplace_back(i, cfg.serviceCycles(),
                              cfg.inputBuffers, cfg.outputBuffers);
}

std::span<const PortSeq>
PerCycleMultiPort::premap(std::span<const std::vector<Request>> streams)
{
    if (portMods_.size() < streams.size())
        portMods_.resize(streams.size());
    seqs_.resize(streams.size());
    for (std::size_t p = 0; p < streams.size(); ++p) {
        const std::vector<Request> &stream = streams[p];
        portMods_[p].resize(stream.size());
        slicer_.mapWith(
            [&stream](std::size_t i) { return stream[i].addr; },
            stream.size(), portMods_[p].data());
        seqs_[p] = {portMods_[p].data(), stream.size()};
    }
    return seqs_;
}

AccessResult
PerCycleMultiPort::runSingle(const std::vector<Request> &stream,
                             DeliveryArena *arena)
{
    const PortSeq seq = premap({&stream, 1})[0];
    simulate({&seq, 1});
    AccessResult result;
    materializeEmits(trace(0), stream, seq.mods, arena, result);
    releaseTraces();
    return result;
}

MultiPortResult
PerCycleMultiPort::run(const std::vector<std::vector<Request>> &streams,
                       DeliveryArena *arena)
{
    cfva_assert(!streams.empty(), "need at least one port");
    // Premap every stream before the simulation loop (bit-sliced
    // for linear mappings); issue attempts just index the result.
    const std::span<const PortSeq> seqs = premap(streams);
    simulate(seqs);

    MultiPortResult result;
    result.makespan = makespan_;
    result.ports.resize(streams.size());
    for (std::size_t p = 0; p < streams.size(); ++p)
        materializeEmits(trace(p), streams[p], seqs[p].mods, arena,
                         result.ports[p], static_cast<unsigned>(p));
    releaseTraces();
    return result;
}

void
PerCycleMultiPort::simulate(std::span<const PortSeq> seqs)
{
    loop<false>(seqs, nullptr);
}

bool
PerCycleMultiPort::simulate(const PortSeq &port,
                            SteadyStateCollapser &collapser)
{
    return loop<true>({&port, 1}, &collapser);
}

template <bool Collapsing>
bool
PerCycleMultiPort::loop(std::span<const PortSeq> seqs,
                        SteadyStateCollapser *collapser)
{
    const unsigned n_ports = static_cast<unsigned>(seqs.size());
    std::vector<MemoryModule> &modules = modules_;
    for (auto &mod : modules)
        mod.reset();
    order_.resize(n_ports);
    std::vector<unsigned> &order = order_;
    for (unsigned p = 0; p < n_ports; ++p)
        order[p] = p;

    ports_.resize(n_ports);
    std::vector<PortState> &ports = ports_;
    std::size_t total = 0;
    for (unsigned p = 0; p < n_ports; ++p) {
        const std::size_t len = seqs[p].length;
        cfva_assert(len <= std::numeric_limits<std::uint32_t>::max(),
                    "port ", p, " stream of ", len,
                    " requests overflows a stream position");
        total += len;
        ports[p].next = 0;
        ports[p].trace.summary = {};
        ports[p].trace.emits.clear();
        ports[p].trace.emits.reserve(len);
    }
    std::size_t delivered_total = 0;

    const Cycle limit = wedgeLimit(cfg_, total, n_ports);

    // Aggregate occupancy, maintained from the modules' returns, so
    // the whole-array scans below can be skipped on quiet cycles.
    unsigned busy = 0;
    unsigned queued = 0;
    unsigned inOutput = 0;

    for (Cycle now = 0; delivered_total < total; ++now) {
        cfva_assert(now <= limit, "multi-port simulation wedged at "
                    "cycle ", now);

        if constexpr (Collapsing) {
            // The collapser may jump `now`, the port and the modules
            // forward together; occupancy is shift-invariant.
            if (!collapser->atCycleTop(now, ports[0], modules))
                return false;
            delivered_total = ports[0].trace.emits.size();
        }

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
                    const InFlight *head = mod.outputHead();
                    if (head && head->port == p
                        && head->ready < best_ready) {
                        best = &mod;
                        best_ready = head->ready;
                    }
                }
                if (best) {
                    const InFlight f = best->popOutput();
                    --inOutput;
                    ports[p].trace.emits.push_back(
                        {f.pos, f.issued, f.arrived, f.serviceStart,
                         f.ready, now});
                    ++delivered_total;
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
        rankPorts(order, ports);
        for (unsigned k = 0; k < n_ports; ++k) {
            const unsigned p = order[k];
            PortState &ps = ports[p];
            if (ps.next >= seqs[p].length)
                continue;
            const ModuleId target = seqs[p].mods[ps.next];
            cfva_assert(target < cfg_.modules(),
                        "mapping produced module ", target,
                        " outside 2^", cfg_.m);
            MemoryModule &mod = modules[target];
            if (mod.canAccept()) {
                InFlight f;
                f.pos = static_cast<std::uint32_t>(ps.next);
                f.port = p;
                f.issued = now;
                f.arrived = now + 1;
                mod.accept(f, target);
                ++queued;
                if (ps.next == 0)
                    ps.trace.summary.firstIssue = now;
                ++ps.next;
            } else {
                ++ps.trace.summary.stallCycles;
            }
        }
    }

    // Fold each port's aggregates: latency, the conflict-free
    // criterion, and the makespan over all ports.
    const Cycle T = cfg_.serviceCycles();
    makespan_ = 0;
    for (unsigned p = 0; p < n_ports; ++p) {
        PortTrace &t = ports[p].trace;
        const std::size_t len = seqs[p].length;
        if (len == 0) {
            // A port with nothing to issue vacuously ran at its
            // minimum.
            t.summary.conflictFree = true;
            continue;
        }
        EmitSummary &s = t.summary;
        s.lastDelivery = t.emits.back().delivered;
        s.latency = s.lastDelivery - s.firstIssue + 1;
        s.conflictFree =
            s.stallCycles == 0
            && s.latency == static_cast<Cycle>(len) + T + 1;
        makespan_ = std::max(makespan_, s.lastDelivery + 1);
    }
    return true;
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
