/**
 * @file
 * Shared helpers for the CFVA test suite.
 */

#ifndef CFVA_TESTS_TEST_UTIL_H
#define CFVA_TESTS_TEST_UTIL_H

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "memsys/multi_port.h"
#include "memsys/request.h"

namespace cfva::test {

/**
 * RAII guard turning panic()/fatal() into std::runtime_error for
 * the duration of a test, so death paths are assertable with
 * EXPECT_THROW instead of death tests.
 */
class ScopedPanicThrow
{
  public:
    ScopedPanicThrow() { setThrowOnPanic(true); }
    ~ScopedPanicThrow() { setThrowOnPanic(false); }

    ScopedPanicThrow(const ScopedPanicThrow &) = delete;
    ScopedPanicThrow &operator=(const ScopedPanicThrow &) = delete;
};

/**
 * Asserts the timing contract of memsys/request.h on every record
 * of @p r, port @p port's answer to @p stream: a request crosses the
 * 1-cycle request bus, starts service no earlier than it arrives, is
 * ready T cycles later, and crosses the port's return bus no earlier
 * than that, at most one delivery per cycle; and every element of
 * @p stream is delivered exactly once, tagged with @p port.
 */
inline void
expectTimingContract(const MemConfig &cfg, const AccessResult &r,
                     const std::vector<Request> &stream, unsigned port,
                     const std::string &what)
{
    ASSERT_EQ(r.deliveries.size(), stream.size()) << what;
    std::vector<bool> seen(stream.size(), false);
    for (std::size_t i = 0; i < r.deliveries.size(); ++i) {
        const Delivery &d = r.deliveries[i];
        const std::string at = what + " record " + std::to_string(i);
        EXPECT_EQ(d.port, port) << at;
        EXPECT_EQ(d.arrived, d.issued + 1) << at;
        EXPECT_GE(d.serviceStart, d.arrived) << at;
        EXPECT_EQ(d.ready, d.serviceStart + cfg.serviceCycles()) << at;
        EXPECT_GE(d.delivered, d.ready) << at;
        if (i > 0) {
            EXPECT_GT(d.delivered, r.deliveries[i - 1].delivered) << at;
        }
        ASSERT_LT(d.element, stream.size()) << at;
        EXPECT_FALSE(seen[d.element]) << at << ": element twice";
        seen[d.element] = true;
    }
}

/**
 * The per-cycle simulator's materialized answer to @p streams over
 * the caller's own premap @p seqs (seqs[p].mods[i] = module of
 * streams[p][i].addr): simulate() + trace(), the way the theory tier
 * fills a fallback.  Must equal sim.run(streams) whenever the
 * premap is right.
 */
inline MultiPortResult
simulateMapped(PerCycleMultiPort &sim,
               const std::vector<std::vector<Request>> &streams,
               std::span<const PortSeq> seqs,
               DeliveryArena *arena = nullptr)
{
    sim.simulate(seqs);
    MultiPortResult r;
    r.makespan = sim.makespan();
    r.ports.resize(streams.size());
    for (std::size_t p = 0; p < streams.size(); ++p)
        materializeEmits(sim.trace(p), streams[p], seqs[p].mods, arena,
                         r.ports[p], static_cast<unsigned>(p));
    sim.releaseTraces();
    return r;
}

/** The P = 1 case of simulateMapped(): @p stream premapped to
 *  @p mods. */
inline AccessResult
simulateMapped(PerCycleMultiPort &sim, const std::vector<Request> &stream,
               const ModuleId *mods, DeliveryArena *arena = nullptr)
{
    const PortSeq seq{mods, stream.size()};
    sim.simulate({&seq, 1});
    AccessResult r;
    materializeEmits(sim.trace(0), stream, mods, arena, r);
    sim.releaseTraces();
    return r;
}

} // namespace cfva::test

#endif // CFVA_TESTS_TEST_UTIL_H
