/**
 * @file
 * One memory module: q-entry input buffer, T-cycle service, q'-entry
 * output buffer (paper Figure 2).
 */

#ifndef CFVA_MEMSYS_MODULE_H
#define CFVA_MEMSYS_MODULE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "memsys/request.h"

namespace cfva {

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
     * Enqueues a request that arrives at cycle @p arrival.
     * canAccept() must be true.
     */
    void
    accept(const Delivery &d)
    {
        cfva_assert(canAccept(), "module ", id_,
                    " input buffer overflow");
        cfva_assert(d.module == id_, "request for module ", d.module,
                    " routed to module ", id_);
        input_[wrap(inHead_ + inCount_, inputDepth_)] = d;
        ++inCount_;
        peakInput_ = std::max(peakInput_, inCount_);
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
        const Delivery &head = input_[inHead_];
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
    const Delivery *
    outputHead() const
    {
        return outCount_ == 0 ? nullptr : &output_[outHead_];
    }

    /** Removes the output-buffer head (the bus delivered it). */
    Delivery
    popOutput()
    {
        cfva_assert(outCount_ != 0, "module ", id_,
                    " output pop on empty buffer");
        Delivery d = output_[outHead_];
        outHead_ = wrap(outHead_ + 1, outputDepth_);
        --outCount_;
        return d;
    }

    /** True iff no element is buffered, in service, or undelivered. */
    bool
    drained() const
    {
        return inCount_ == 0 && !busy_ && outCount_ == 0;
    }

    /**
     * Restores the freshly constructed state (empty buffers, no
     * service in flight, peak statistics cleared) so one module
     * instance can serve many simulated accesses — a backend that
     * caches its module array calls this instead of reallocating.
     */
    void
    reset()
    {
        inHead_ = inCount_ = 0;
        outHead_ = outCount_ = 0;
        busy_ = false;
        peakInput_ = 0;
    }

    /** True iff an element is currently being serviced. */
    bool busy() const { return busy_; }

    /** Queued requests not yet in service. */
    unsigned inputCount() const { return inCount_; }

    /** Serviced elements awaiting the return bus. */
    unsigned outputCount() const { return outCount_; }

    ModuleId id() const { return id_; }
    Cycle serviceCycles() const { return serviceCycles_; }

    /** Peak input-buffer occupancy seen so far (for benches). */
    unsigned peakInputOccupancy() const { return peakInput_; }

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
    unsigned peakInput_ = 0;

    std::vector<Delivery> input_;  //!< ring storage, size inputDepth_
    std::vector<Delivery> output_; //!< ring storage, size outputDepth_
    unsigned inHead_ = 0, inCount_ = 0;
    unsigned outHead_ = 0, outCount_ = 0;
    Delivery inService_{};
    bool busy_ = false;
};

} // namespace cfva

#endif // CFVA_MEMSYS_MODULE_H
