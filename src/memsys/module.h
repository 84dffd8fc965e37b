/**
 * @file
 * One memory module: q-entry input buffer, T-cycle service, q'-entry
 * output buffer (paper Figure 2).
 */

#ifndef CFVA_MEMSYS_MODULE_H
#define CFVA_MEMSYS_MODULE_H

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "memsys/request.h"

namespace cfva {

/**
 * One element in flight through a module, in stream-position form:
 * the request is named by its issue position on its port, so the
 * record carries exactly what the timing decisions read and the
 * caller fills addresses in from its own stream afterwards.
 */
struct InFlight
{
    std::uint32_t pos = 0;  //!< index into the issuing port's stream
    unsigned port = 0;      //!< issuing port
    Cycle issued = 0;       //!< put on the request bus
    Cycle arrived = 0;      //!< reached the input buffer
    Cycle serviceStart = 0; //!< meaningful once in service
    Cycle ready = 0;        //!< meaningful once in service
};

/**
 * Cycle-stepped model of a single memory module.
 *
 * Lifecycle of an element: it sits in the input buffer from its bus
 * arrival until the module is free, is serviced for exactly T
 * cycles, then moves to the output buffer where the return-bus
 * arbiter picks it up.  If the output buffer is full at completion
 * time the finished element blocks the module (no new service can
 * start), which is how back-pressure propagates to the processor.
 *
 * Both buffers are fixed-capacity rings over flat storage sized at
 * construction; the per-cycle methods are header-inline and the
 * state-changing ones (retire, tryStart) report whether they acted,
 * so the simulator can maintain aggregate occupancy counters and skip
 * whole-array scans on quiet cycles.
 *
 * The module is also the one owner of its state's layout for the
 * steady-state collapser: encodeState() serializes it relative to a
 * cycle and an issue position, and shift() moves every in-flight
 * timestamp and position forward by a whole number of periods.
 */
class MemoryModule
{
  public:
    /**
     * @param id            module number
     * @param serviceCycles T, the memory/processor cycle ratio
     * @param inputDepth    q, input buffer entries (>= 1)
     * @param outputDepth   q', output buffer entries (>= 1)
     */
    MemoryModule(ModuleId id, Cycle serviceCycles, unsigned inputDepth,
                 unsigned outputDepth);

    /** True iff the input buffer can accept one more request. */
    bool canAccept() const { return inCount_ < inputDepth_; }

    /**
     * Enqueues a request that arrives at cycle @p f.arrived.
     * canAccept() must be true, and @p target — the module the
     * mapping chose for the request — must be this one.
     */
    void
    accept(const InFlight &f, ModuleId target)
    {
        cfva_assert(canAccept(), "module ", id_,
                    " input buffer overflow");
        cfva_assert(target == id_, "request for module ", target,
                    " routed to module ", id_);
        input_[wrap(inHead_ + inCount_, inputDepth_)] = f;
        ++inCount_;
    }

    /**
     * Retires a completed service into the output buffer if its
     * T cycles have elapsed by cycle @p now and there is space.
     * Must run before tryStart() each cycle so a module can retire
     * and begin a new service in the same cycle.
     *
     * @return true iff an element moved to the output buffer
     */
    bool
    retire(Cycle now)
    {
        if (!busy_ || inService_.ready > now)
            return false;
        if (outCount_ >= outputDepth_)
            return false; // blocked: the finished element waits
        output_[wrap(outHead_ + outCount_, outputDepth_)] = inService_;
        ++outCount_;
        busy_ = false;
        return true;
    }

    /**
     * Starts servicing the input-buffer head if the module is free
     * and the head has arrived by cycle @p now.
     *
     * @return true iff a service began this cycle
     */
    bool
    tryStart(Cycle now)
    {
        if (busy_ || inCount_ == 0)
            return false;
        const InFlight &head = input_[inHead_];
        if (head.arrived > now)
            return false;
        inService_ = head;
        inHead_ = wrap(inHead_ + 1, inputDepth_);
        --inCount_;
        inService_.serviceStart = now;
        inService_.ready = now + serviceCycles_;
        busy_ = true;
        return true;
    }

    /** Oldest output-buffer entry, if any (for the return bus). */
    const InFlight *
    outputHead() const
    {
        return outCount_ == 0 ? nullptr : &output_[outHead_];
    }

    /** Removes the output-buffer head (the bus delivered it). */
    InFlight
    popOutput()
    {
        cfva_assert(outCount_ != 0, "module ", id_,
                    " output pop on empty buffer");
        InFlight f = output_[outHead_];
        outHead_ = wrap(outHead_ + 1, outputDepth_);
        --outCount_;
        return f;
    }

    /** True iff no element is buffered, in service, or undelivered. */
    bool
    drained() const
    {
        return inCount_ == 0 && !busy_ && outCount_ == 0;
    }

    /**
     * Restores the freshly constructed state (empty buffers, no
     * service in flight) so one module instance can serve many
     * simulated accesses — a backend that caches its module array
     * calls this instead of reallocating.
     */
    void
    reset()
    {
        inHead_ = inCount_ = 0;
        outHead_ = outCount_ = 0;
        busy_ = false;
    }

    /**
     * Appends this module's state to @p sig relative to cycle
     * @p now and issue position @p next, in logical ring order:
     * two states with equal encodings evolve identically up to the
     * (cycle, position) offset between them, because every timing
     * decision compares times with the current cycle and a position
     * only names an element.  Dead fields (serviceStart/ready of
     * entries still in the input buffer) are left out, and so is
     * the port: the encoding serves the single-port loop.
     */
    void encodeState(Cycle now, std::size_t next,
                     std::vector<std::int64_t> &sig) const;

    /** Moves every in-flight element @p cycles later and
     *  @p positions further down its stream. */
    void shift(Cycle cycles, std::uint32_t positions);

    /** True iff an element is currently being serviced. */
    bool busy() const { return busy_; }

    /** Queued requests not yet in service. */
    unsigned inputCount() const { return inCount_; }

    /** Serviced elements awaiting the return bus. */
    unsigned outputCount() const { return outCount_; }

    ModuleId id() const { return id_; }
    Cycle serviceCycles() const { return serviceCycles_; }

  private:
    /** Ring advance by compare, not modulo (depths are tiny). */
    static unsigned
    wrap(unsigned i, unsigned depth)
    {
        return i >= depth ? i - depth : i;
    }

    ModuleId id_;
    Cycle serviceCycles_;
    unsigned inputDepth_;
    unsigned outputDepth_;

    std::vector<InFlight> input_;  //!< ring storage, size inputDepth_
    std::vector<InFlight> output_; //!< ring storage, size outputDepth_
    unsigned inHead_ = 0, inCount_ = 0;
    unsigned outHead_ = 0, outCount_ = 0;
    InFlight inService_{};
    bool busy_ = false;
};

} // namespace cfva

#endif // CFVA_MEMSYS_MODULE_H
