/**
 * @file
 * Differential and property testing of the per-cycle multi-port
 * simulator: its multi-port entry points against each other, the
 * analytic tier against it, and physical invariants of its answers.
 *
 * The contract (memsys/multi_port.h): for every set of request
 * streams on every memory shape, PerCycleMultiPort::run and
 * ::simulate over a premap return bit-identical MultiPortResults —
 * every per-port delivery record with all five timestamps and the port
 * tag, every per-port stall count, every aggregate — with or
 * without a DeliveryArena, and every port's records obey the timing
 * contract of memsys/request.h.  Three layers of evidence:
 *
 * 1. Raw-stream properties: adversarial stream sets (all ports on
 *    one module, uneven and empty streams, permuted orders, tiny
 *    buffers) driven through every entry point.
 * 2. A randomized ScenarioGrid of > 1000 planned multi-port
 *    accesses across every mapping kind, ports in {2, 3, 4}, and
 *    mixed per-port traffic, swept under the audit tier (theory
 *    tier vs the per-cycle oracle on every scenario), and sampled
 *    planned accesses whose full theory-tier MultiPortResults must
 *    equal the simulated ones.
 * 3. Physical invariants: per-port delivery counts are conserved
 *    (every issued element delivered exactly once to its own port),
 *    and the makespan is monotone in added streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/stride.h"
#include "core/access_unit.h"
#include "mapping/interleave.h"
#include "mapping/xor_matched.h"
#include "memsys/multi_port.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "test_util.h"

namespace cfva {
namespace {

/** Asserts @p got bit-identical to @p oracle, naming the first
 *  diverging delivery. */
void
expectSameResult(const MultiPortResult &got,
                 const MultiPortResult &oracle, const std::string &what)
{
    ASSERT_EQ(got.ports.size(), oracle.ports.size()) << what;
    for (std::size_t p = 0; p < oracle.ports.size(); ++p) {
        ASSERT_EQ(got.ports[p].deliveries.size(),
                  oracle.ports[p].deliveries.size())
            << what << ": port " << p;
        for (std::size_t i = 0; i < oracle.ports[p].deliveries.size();
             ++i) {
            ASSERT_EQ(got.ports[p].deliveries[i],
                      oracle.ports[p].deliveries[i])
                << what << ": port " << p << " delivery " << i
                << " diverges (element "
                << oracle.ports[p].deliveries[i].element << ")";
        }
        ASSERT_EQ(got.ports[p], oracle.ports[p])
            << what << ": port " << p << " aggregates diverge";
    }
    EXPECT_EQ(got, oracle) << what;
}

/**
 * Runs @p streams through the per-cycle simulator's multi-port
 * entry points — run() and simulate() over a scalar premap, each
 * without and with a DeliveryArena, on one reused backend — and
 * asserts every answer bit-identical to a fresh simulateMultiPort()
 * and every port true to the timing contract.
 */
void
expectBackendsAgree(const MemConfig &cfg, const ModuleMapping &map,
                    const std::vector<std::vector<Request>> &streams,
                    const char *what)
{
    const MultiPortResult oracle = simulateMultiPort(cfg, map, streams);
    for (unsigned p = 0; p < streams.size(); ++p) {
        test::expectTimingContract(cfg, oracle.ports[p], streams[p], p,
                                   std::string(what) + " port "
                                       + std::to_string(p));
    }

    std::vector<std::vector<ModuleId>> mods(streams.size());
    std::vector<PortSeq> seqs(streams.size());
    for (std::size_t p = 0; p < streams.size(); ++p) {
        for (const Request &r : streams[p])
            mods[p].push_back(map.moduleOf(r.addr));
        seqs[p] = {mods[p].data(), mods[p].size()};
    }
    PerCycleMultiPort backend(cfg, map);
    DeliveryArena arena;
    for (DeliveryArena *a :
         {static_cast<DeliveryArena *>(nullptr), &arena}) {
        const std::string where =
            std::string(what) + (a ? " (arena)" : "");
        MultiPortResult plain = backend.run(streams, a);
        expectSameResult(plain, oracle, where + " run");
        MultiPortResult mapped =
            test::simulateMapped(backend, streams, seqs, a);
        expectSameResult(mapped, oracle,
                         where + " simulate(scalar premap)");
        if (a) {
            // Recycle the buffers so later runs draw stale ones.
            for (auto *r : {&plain, &mapped})
                for (AccessResult &port : r->ports)
                    a->release(std::move(port.deliveries));
        }
    }
}

std::vector<Request>
sequentialStream(const std::vector<Addr> &addrs)
{
    std::vector<Request> stream;
    stream.reserve(addrs.size());
    for (std::size_t i = 0; i < addrs.size(); ++i)
        stream.push_back({addrs[i], i});
    return stream;
}

TEST(MultiPortDifferential, TwoSingleElementStreams)
{
    const MemConfig cfg;
    const XorMatchedMapping map(3, 4);
    expectBackendsAgree(cfg, map,
                        {sequentialStream({13}),
                         sequentialStream({13})},
                        "two one-element streams");
}

TEST(MultiPortDifferential, EmptyAndShortStreams)
{
    // A port with nothing to issue next to active ports: the empty
    // port must stay vacuously conflict free.
    const MemConfig cfg;
    const XorMatchedMapping map(3, 4);
    expectBackendsAgree(cfg, map,
                        {sequentialStream({}),
                         sequentialStream({1, 2, 3, 4})},
                        "empty + short");
    expectBackendsAgree(cfg, map,
                        {sequentialStream({5, 6}),
                         sequentialStream({}),
                         sequentialStream({7})},
                        "short + empty + one");
}

TEST(MultiPortDifferential, AdversarialSameModulePileup)
{
    // Every request of every port lands on module 0: the maximally
    // contended stream set, where the least-issued-first rotation,
    // blocked retires, and per-port head-of-line blocking through
    // the shared output FIFO are all hit constantly.
    for (unsigned n_ports : {2u, 3u, 4u}) {
        for (unsigned q : {1u, 2u}) {
            for (unsigned qp : {1u, 2u}) {
                MemConfig cfg;
                cfg.m = 3;
                cfg.t = 3;
                cfg.inputBuffers = q;
                cfg.outputBuffers = qp;
                const LowOrderInterleave map(3);
                std::vector<std::vector<Request>> streams;
                for (unsigned p = 0; p < n_ports; ++p) {
                    std::vector<Addr> addrs(24);
                    for (std::size_t i = 0; i < addrs.size(); ++i)
                        addrs[i] = (i + p) * 8; // always module 0
                    streams.push_back(sequentialStream(addrs));
                }
                expectBackendsAgree(cfg, map, streams,
                                    "same-module pileup");
            }
        }
    }
}

TEST(MultiPortDifferential, UnevenStreamLengths)
{
    // Ports finishing at very different times: the issue rotation
    // keeps re-sorting as ports drain, and finished ports must not
    // distort the survivors' stalls.
    Rng rng(0xBADCAFEull);
    for (unsigned rep = 0; rep < 12; ++rep) {
        MemConfig cfg;
        cfg.m = 2 + rng.below(2);
        cfg.t = 2 + rng.below(2);
        cfg.inputBuffers = 1 + rng.below(2);
        const LowOrderInterleave map(cfg.m);
        const unsigned n_ports = 2 + rng.below(3);
        std::vector<std::vector<Request>> streams;
        for (unsigned p = 0; p < n_ports; ++p) {
            const std::size_t len = rng.below(1 + 16 * (p + 1));
            std::vector<Addr> addrs(len);
            for (auto &a : addrs)
                a = rng.below(Addr{1} << (3 + rng.below(6)));
            streams.push_back(sequentialStream(addrs));
        }
        expectBackendsAgree(cfg, map, streams, "uneven lengths");
    }
}

TEST(MultiPortDifferential, RandomStreamsAllShapes)
{
    Rng rng(0xD1FF2ull);
    unsigned checked = 0;
    for (unsigned m : {1u, 2u, 3u, 4u}) {
        for (unsigned t : {1u, 2u, 3u}) {
            for (unsigned n_ports : {2u, 3u, 4u}) {
                MemConfig cfg;
                cfg.m = m;
                cfg.t = t;
                cfg.inputBuffers = 1 + (checked % 2);
                cfg.outputBuffers = 1 + (checked % 3) / 2;
                const LowOrderInterleave map(m);
                for (unsigned rep = 0; rep < 3; ++rep) {
                    // Clustered addresses: small ranges produce
                    // heavy conflicts, large ranges light ones.
                    const Addr range = Addr{1} << (2 + rng.below(8));
                    std::vector<std::vector<Request>> streams;
                    for (unsigned p = 0; p < n_ports; ++p) {
                        const std::size_t len = 1 + rng.below(48);
                        std::vector<Addr> addrs(len);
                        for (auto &a : addrs)
                            a = rng.below(range);
                        streams.push_back(sequentialStream(addrs));
                    }
                    expectBackendsAgree(cfg, map, streams,
                                        "random streams");
                    ++checked;
                }
            }
        }
    }
    EXPECT_GE(checked, 100u);
}

/**
 * The randomized grid: every mapping kind x strides x lengths x
 * starts x ports {2, 3, 4} x mixed per-port traffic, > 1000
 * scenarios.
 */
sim::ScenarioGrid
randomizedMultiPortGrid(std::uint64_t seed)
{
    Rng rng(seed);
    sim::ScenarioGrid grid;

    auto push = [&](MemoryKind kind, unsigned t, unsigned lambda) {
        VectorUnitConfig cfg;
        cfg.kind = kind;
        cfg.t = t;
        cfg.lambda = lambda;
        cfg.inputBuffers = 1 + static_cast<unsigned>(rng.below(3));
        cfg.outputBuffers = 1 + static_cast<unsigned>(rng.below(2));
        if (kind == MemoryKind::SimpleUnmatched) {
            cfg.mOverride =
                t + static_cast<unsigned>(rng.below(lambda - 2 * t + 1));
        }
        if (kind == MemoryKind::DynamicTuned)
            cfg.dynamicTune = static_cast<unsigned>(rng.below(6));
        if (kind == MemoryKind::PseudoRandom)
            cfg.prandSeed = rng.next();
        grid.mappings.push_back(cfg);
    };

    for (MemoryKind kind :
         {MemoryKind::Matched, MemoryKind::SimpleUnmatched,
          MemoryKind::Sectioned, MemoryKind::DynamicTuned,
          MemoryKind::PseudoRandom}) {
        const unsigned t = 2 + static_cast<unsigned>(rng.below(2));
        const unsigned lambda =
            2 * t + 1 + static_cast<unsigned>(rng.below(2));
        push(kind, t, lambda);
    }

    // Strides: families 0..5 with random odd multipliers.
    for (unsigned x = 0; x <= 5; ++x)
        grid.strides.push_back(
            Stride::fromFamily(rng.oddBelow(32), x).value());

    // Full-register plus a short vector, at every port count the
    // differential must guard.
    grid.lengths = {0, 1 + rng.below(24)};
    grid.ports = {2, 3, 4};

    // Mixed traffic: cloned, odd-multiplier (same family),
    // even-multiplier (family shift), and descending streams.
    grid.portMixes = {sim::PortMix{},
                      sim::PortMix{{1, 3}},
                      sim::PortMix{{1, 2, 5}},
                      sim::PortMix{{1, -1}}};

    grid.starts = {0};
    grid.randomStarts = 1;
    grid.seed = rng.next();
    return grid;
}

TEST(MultiPortDifferential, RandomizedGridOver1000Scenarios)
{
    const sim::ScenarioGrid grid =
        randomizedMultiPortGrid(0x5EED1234ull);
    ASSERT_GE(grid.jobCount(), 1000u)
        << "property budget: the grid must cover >= 1000 scenarios";

    // The audit tier runs every scenario on the theory tier and on
    // the per-cycle oracle and flags any field that differs.
    sim::SweepOptions opts;
    opts.tier = TierPolicy::AuditBoth;
    sim::SweepRunStats stats;
    const sim::SweepReport audited =
        sim::SweepEngine(opts).run(grid, &stats);

    ASSERT_EQ(audited.jobs(), grid.jobCount());
    for (const sim::ScenarioOutcome &o : audited.outcomes) {
        EXPECT_FALSE(o.tierAuditDiverged)
            << "scenario " << o.index << " ("
            << audited.mappingLabels[o.mappingIndex] << " stride "
            << o.stride << " mix "
            << audited.portMixLabels[o.portMixIndex] << " ports "
            << o.ports << " length " << o.length << " a1 " << o.a1
            << ") diverges";
    }
    EXPECT_EQ(stats.tierAuditDivergences, 0u);
}

TEST(MultiPortDifferential, PlannedAccessesFullResultEquality)
{
    // Beyond the report fields: the complete MultiPortResult —
    // every per-port delivery timestamp — for planned multi-port
    // accesses of each kind, the theory tier's full-detail answer
    // against the simulator's.
    Rng rng(0xACCE551ull);
    const sim::ScenarioGrid grid =
        randomizedMultiPortGrid(0xF00D1234ull);
    unsigned checked = 0;
    for (const auto &mapping : grid.mappings) {
        const VectorAccessUnit unit(mapping);
        for (unsigned rep = 0; rep < 6; ++rep) {
            const unsigned n_ports = 2 + rng.below(3);
            std::vector<std::vector<Request>> streams;
            for (unsigned p = 0; p < n_ports; ++p) {
                const Stride stride = Stride::fromFamily(
                    rng.oddBelow(16),
                    static_cast<unsigned>(rng.below(6)));
                const std::uint64_t length =
                    rep < 3 ? mapping.registerLength()
                            : 1 + rng.below(mapping.registerLength());
                const Addr a1 =
                    rng.below(Addr{1} << 18) + (Addr{p} << 20);
                streams.push_back(
                    unit.plan(a1, stride, length).stream);
            }
            const MultiPortResult a = unit.executePorts(streams);
            const MultiPortResult b = unit.executePorts(
                streams, nullptr, nullptr, TierPolicy::TheoryFirst);
            EXPECT_EQ(b, a)
                << mapping.describe() << " ports " << n_ports;
            ++checked;
        }
    }
    EXPECT_GE(checked, 30u);
}

TEST(MultiPortProperty, DeliveryCountsConserved)
{
    // Conservation: every port delivers exactly its stream's
    // elements, each exactly once, tagged with its own port id.
    Rng rng(0xC015E12Eull);
    for (unsigned rep = 0; rep < 10; ++rep) {
        MemConfig cfg;
        cfg.m = 2 + rng.below(3);
        cfg.t = 2 + rng.below(2);
        const LowOrderInterleave map(cfg.m);
        const unsigned n_ports = 2 + rng.below(3);
        std::vector<std::vector<Request>> streams;
        for (unsigned p = 0; p < n_ports; ++p) {
            const std::size_t len = rng.below(64);
            std::vector<Addr> addrs(len);
            for (auto &a : addrs)
                a = rng.below(1 << 10);
            streams.push_back(sequentialStream(addrs));
        }
        const MultiPortResult r = simulateMultiPort(cfg, map, streams);
        ASSERT_EQ(r.ports.size(), n_ports);
        for (unsigned p = 0; p < n_ports; ++p) {
            ASSERT_EQ(r.ports[p].deliveries.size(),
                      streams[p].size())
                << "port " << p;
            std::vector<std::uint64_t> elements;
            for (const auto &d : r.ports[p].deliveries) {
                EXPECT_EQ(d.port, p);
                elements.push_back(d.element);
            }
            std::sort(elements.begin(), elements.end());
            for (std::size_t i = 0; i < elements.size(); ++i)
                ASSERT_EQ(elements[i], i)
                    << "port " << p << " lost or duplicated an "
                    << "element";
        }
    }
}

TEST(MultiPortProperty, MakespanMonotoneInAddedStreams)
{
    // Adding a stream can only grow (or keep) the makespan: the
    // extra traffic competes for the same modules and buses.
    Rng rng(0x300D5ull);
    for (unsigned rep = 0; rep < 8; ++rep) {
        MemConfig cfg;
        cfg.m = 2 + rng.below(2);
        cfg.t = 2 + rng.below(2);
        const LowOrderInterleave map(cfg.m);
        std::vector<std::vector<Request>> streams;
        Cycle prev = 0;
        for (unsigned p = 0; p < 4; ++p) {
            const std::size_t len = 8 + rng.below(32);
            std::vector<Addr> addrs(len);
            for (auto &a : addrs)
                a = rng.below(1 << 8);
            streams.push_back(sequentialStream(addrs));
            const MultiPortResult r =
                simulateMultiPort(cfg, map, streams);
            EXPECT_GE(r.makespan, prev)
                << "adding stream " << p << " shrank the makespan";
            prev = r.makespan;
        }
    }
}

TEST(MultiPortDifferential, ArenaDoesNotChangeResults)
{
    // Arena-recycled delivery buffers must leave the records
    // themselves bit-identical, and buffers must actually pool.
    const MemConfig cfg;
    const XorMatchedMapping map(3, 4);
    std::vector<std::vector<Request>> streams;
    for (unsigned p = 0; p < 3; ++p) {
        std::vector<Addr> addrs(40);
        for (std::size_t i = 0; i < addrs.size(); ++i)
            addrs[i] = i * 3 + p;
        streams.push_back(sequentialStream(addrs));
    }

    DeliveryArena arena;
    PerCycleMultiPort backend(cfg, map);
    const MultiPortResult plain = backend.run(streams);
    MultiPortResult pooled = backend.run(streams, &arena);
    EXPECT_EQ(pooled, plain);
    for (auto &port : pooled.ports)
        arena.release(std::move(port.deliveries));
    EXPECT_EQ(arena.pooled(), 3u);
    const MultiPortResult reused = backend.run(streams, &arena);
    EXPECT_EQ(reused, plain);
    EXPECT_EQ(arena.pooled(), 0u); // buffers handed back out

    // The P = 1 path recycles too: a released buffer is handed back
    // out on the next runSingle, so the sweep's release-after-consume
    // loop cannot grow the pool unboundedly.
    AccessResult first = backend.runSingle(streams[0], &arena);
    const AccessResult bare = backend.runSingle(streams[0]);
    EXPECT_EQ(first, bare);
    arena.release(std::move(first.deliveries));
    EXPECT_EQ(arena.pooled(), 1u);
    const AccessResult second = backend.runSingle(streams[0], &arena);
    EXPECT_EQ(second, bare);
    EXPECT_EQ(arena.pooled(), 0u);
}

TEST(MultiPortDifferential, ArenaPoolIsBounded)
{
    // One pathological large-L access must not pin a peak-sized
    // buffer for the rest of a sweep, and runaway release loops
    // must not grow the freelist without bound.
    DeliveryArena arena;

    // Oversize buffers are freed on release, not pooled: the
    // pooled byte count is the same before and after.
    std::vector<Delivery> huge;
    huge.reserve(DeliveryArena::kMaxPooledCapacity + 1);
    const std::size_t bytesBefore = arena.pooledBytes();
    const std::size_t countBefore = arena.pooled();
    arena.release(std::move(huge));
    EXPECT_EQ(arena.pooledBytes(), bytesBefore);
    EXPECT_EQ(arena.pooled(), countBefore);

    // A buffer at exactly the cap still pools.
    std::vector<Delivery> atCap;
    atCap.reserve(DeliveryArena::kMaxPooledCapacity);
    arena.release(std::move(atCap));
    EXPECT_EQ(arena.pooled(), 1u);
    EXPECT_GE(arena.pooledBytes(),
              DeliveryArena::kMaxPooledCapacity * sizeof(Delivery));

    // The pool count is capped: releases beyond kMaxPooled free
    // their buffers instead of retaining them.
    for (std::size_t i = 0; i < 2 * DeliveryArena::kMaxPooled; ++i) {
        std::vector<Delivery> buf;
        buf.reserve(8);
        arena.release(std::move(buf));
    }
    EXPECT_EQ(arena.pooled(), DeliveryArena::kMaxPooled);
    const std::size_t bytesAtCap = arena.pooledBytes();
    std::vector<Delivery> overflow;
    overflow.reserve(8);
    arena.release(std::move(overflow));
    EXPECT_EQ(arena.pooled(), DeliveryArena::kMaxPooled);
    EXPECT_EQ(arena.pooledBytes(), bytesAtCap);

    // Unused capacity (capacity 0) is never worth pooling.
    arena.release(std::vector<Delivery>{});
    EXPECT_EQ(arena.pooled(), DeliveryArena::kMaxPooled);
}

TEST(MultiPortDifferential, RejectsEmptyPortList)
{
    test::ScopedPanicThrow guard;
    const MemConfig cfg{2, 2, 1, 1};
    const LowOrderInterleave map(2);
    EXPECT_THROW(simulateMultiPort(cfg, map, {}), std::runtime_error);
}

} // namespace
} // namespace cfva
