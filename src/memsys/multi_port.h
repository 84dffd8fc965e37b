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
 * This loop is the only per-cycle model in the program, and the
 * oracle: every cycle is stepped, so its semantics are auditable
 * line by line.  The analytic tier (theory/theory_backend.h) falls
 * back to it, and its steady-state solver runs the same loop at
 * P = 1, with the collapser (memsys/steady_state.h) called at each
 * cycle top to snapshot the state and jump over the periodic
 * middle — so a solver claim is this loop's own answer, not a
 * second model's.  --tier audit and the differential suites hold
 * the tier bit-identical to the plain loop.
 */

#ifndef CFVA_MEMSYS_MULTI_PORT_H
#define CFVA_MEMSYS_MULTI_PORT_H

#include <span>
#include <utility>
#include <vector>

#include "mapping/bitslice.h"
#include "mapping/mapping.h"
#include "memsys/backend.h"
#include "memsys/module.h"

namespace cfva {

class SteadyStateCollapser;

namespace detail {

/** Per-port state of the simulation loop: the issue cursor and
 *  the port's trace so far (stalls and first issue accumulate in
 *  trace.summary; the rest of the summary is filled at the end). */
struct PortState
{
    std::size_t next = 0; //!< next request index (= requests issued)
    PortTrace trace;
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
 *
 * The loop works in position form: the modules hold InFlight
 * records that name each request by its stream position, and each
 * delivery is appended to its port's trace as an Emit.  run() and
 * runSingle() premap, step and turn the traces into Delivery
 * records (materializeEmits); callers that keep position form — the
 * theory tier, its outcome memo and the steady-state collapser —
 * premap(), simulate() and read trace() instead.
 *
 * The premap scratch is the only premap of whoever owns the
 * simulator: the theory tier embedding it proves, keys its outcome
 * memo, collapses and — after a rejection — simulates over the one
 * premap() view.
 */
class PerCycleMultiPort
{
  public:
    /**
     * @param cfg   memory shape (modules, T, buffers); rejected
     *              through MemConfig::validate()
     * @param map   shared address mapping; must produce module
     *              numbers < cfg.modules()
     */
    PerCycleMultiPort(const MemConfig &cfg, const ModuleMapping &map);

    /**
     * Simulates @p streams issued simultaneously, one request per
     * port per cycle (P = streams.size() >= 1).  Issue priority is
     * least-issued-port-first each cycle; each port has a private
     * return bus delivering at most one of its elements per cycle.
     *
     * @param streams  one request stream per port (lengths may
     *                 differ; an empty stream is a vacuously
     *                 conflict-free port)
     * @param arena    optional buffer recycler for the per-port
     *                 delivery records
     */
    MultiPortResult
    run(const std::vector<std::vector<Request>> &streams,
        DeliveryArena *arena = nullptr);

    /**
     * The P = 1 case without wrapping the stream: returns the
     * port's AccessResult directly, bit-identical to
     * run({stream}).ports[0].
     */
    AccessResult
    runSingle(const std::vector<Request> &stream,
              DeliveryArena *arena = nullptr);

    /**
     * Maps every stream of @p streams to its module sequence
     * (bit-sliced GF(2) bit-matrix multiplies whenever the mapping
     * exposes fixed rows) into this simulator's scratch: entry p
     * views streams[p].  The view stays valid until the next
     * premap(), run() or runSingle(); simulate() leaves it alone.
     */
    std::span<const PortSeq>
    premap(std::span<const std::vector<Request>> streams);

    /**
     * The plain loop over P = @p seqs.size() premapped sequences,
     * every cycle stepped; the outcome is read through trace() and
     * makespan().
     */
    void simulate(std::span<const PortSeq> seqs);

    /**
     * The loop over one premapped sequence with @p collapser called
     * at the top of every cycle, before the retire step, with the
     * loop's cycle counter, the port and the modules — all of which
     * it may jump forward together.  No request is read: a delivery
     * is named by its stream position.  False iff the collapser gave
     * up (the traces are then meaningless).
     */
    bool simulate(const PortSeq &port,
                  SteadyStateCollapser &collapser);

    /** Port @p port's position-form outcome of the last run. */
    const PortTrace &
    trace(std::size_t port) const
    {
        return ports_[port].trace;
    }

    /** Moves port @p port's trace out of the last run (trace(port)
     *  is then moved-from): a caller that keeps a trace takes it
     *  rather than copying it before releaseTraces(). */
    PortTrace
    takeTrace(std::size_t port)
    {
        return std::move(ports_[port].trace);
    }

    /** The makespan of the last run (as in
     *  MultiPortResult::makespan). */
    Cycle makespan() const { return makespan_; }

    /**
     * Frees the traces of the last run; trace() is invalid until
     * the next one.  A worker caches many simulators, each idle
     * between its accesses, so a caller done reading the traces
     * hands their storage back rather than leave every cached
     * simulator holding its longest run.  run() and runSingle()
     * call it themselves.
     */
    void releaseTraces() { ports_.clear(); }

    const MemConfig &config() const { return cfg_; }

  private:
    /** The loop both simulate() overloads run, over P =
     *  ports.size() premapped sequences; the collapser's call is
     *  compiled in only when @p Collapsing. */
    template <bool Collapsing>
    bool loop(std::span<const PortSeq> ports,
              SteadyStateCollapser *collapser);

    MemConfig cfg_;
    BitSlicedMapper slicer_;

    // Persistent across run() calls so a cached backend stops
    // paying the per-access construction cost (module array with
    // its buffers, issue and premap scratch; the traces live only
    // until releaseTraces()).  Every run() resets what it uses;
    // results are bit-identical to a freshly constructed backend.
    std::vector<MemoryModule> modules_;
    std::vector<unsigned> order_; //!< issue-priority scratch
    std::vector<detail::PortState> ports_; //!< per-port state
    std::vector<std::vector<ModuleId>> portMods_; //!< premap scratch
    std::vector<PortSeq> seqs_; //!< premap()'s view of portMods_
    Cycle makespan_ = 0;
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
