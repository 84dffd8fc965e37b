/**
 * @file
 * Tests for the cycle-accurate multi-module memory simulator at
 * P = 1, the paper's single-port memory.
 */

#include <gtest/gtest.h>

#include <string>

#include "access/ordering.h"
#include "mapping/interleave.h"
#include "mapping/xor_matched.h"
#include "memsys/multi_port.h"
#include "test_util.h"
#include "theory/theory_backend.h"

namespace cfva {
namespace {

TEST(MemoryModule, LifecycleTiming)
{
    MemoryModule mod(0, /*T=*/4, /*q=*/1, /*q'=*/1);
    EXPECT_TRUE(mod.canAccept());
    EXPECT_TRUE(mod.drained());

    InFlight f;
    f.arrived = 1;
    mod.accept(f, 0);
    EXPECT_FALSE(mod.canAccept());
    EXPECT_FALSE(mod.drained());

    // Not arrived yet at cycle 0.
    mod.tryStart(0);
    EXPECT_FALSE(mod.canAccept());

    // Starts at cycle 1, ready at 5.
    mod.tryStart(1);
    EXPECT_TRUE(mod.canAccept());
    mod.retire(4);
    EXPECT_EQ(mod.outputHead(), nullptr);
    mod.retire(5);
    ASSERT_NE(mod.outputHead(), nullptr);
    EXPECT_EQ(mod.outputHead()->serviceStart, 1u);
    EXPECT_EQ(mod.outputHead()->ready, 5u);

    const InFlight out = mod.popOutput();
    EXPECT_EQ(out.ready, 5u);
    EXPECT_TRUE(mod.drained());
}

TEST(MemoryModule, OutputBackPressureBlocksService)
{
    MemoryModule mod(0, /*T=*/2, /*q=*/2, /*q'=*/1);
    const InFlight f;
    mod.accept(f, 0);
    mod.accept(f, 0);

    mod.tryStart(0);       // first service: ready at 2
    mod.retire(2);         // into the single output slot
    mod.tryStart(2);       // second service: ready at 4
    mod.retire(4);         // blocked: output still full
    EXPECT_NE(mod.outputHead(), nullptr);
    mod.popOutput();
    mod.retire(4);         // now it retires
    ASSERT_NE(mod.outputHead(), nullptr);
    EXPECT_EQ(mod.outputHead()->ready, 4u);
}

TEST(MemoryModule, RejectsMisroutedRequest)
{
    test::ScopedPanicThrow guard;
    MemoryModule mod(3, 4, 1, 1);
    const InFlight f;
    EXPECT_THROW(mod.accept(f, 2), std::runtime_error);
}

TEST(MemoryModule, ShiftedStateEncodesIdentically)
{
    // The collapser's jump moves a module by whole periods; relative
    // to the moved (cycle, position) the state must read the same,
    // and it must keep evolving the same.
    MemoryModule mod(0, /*T=*/4, /*q=*/2, /*q'=*/1);
    InFlight f;
    f.arrived = 1;
    mod.accept(f, 0);
    f.pos = 1;
    f.issued = 1;
    f.arrived = 2;
    mod.accept(f, 0);
    ASSERT_TRUE(mod.tryStart(1));

    std::vector<std::int64_t> before, after;
    mod.encodeState(/*now=*/2, /*next=*/2, before);
    mod.shift(/*cycles=*/10, /*positions=*/6);
    mod.encodeState(12, 8, after);
    EXPECT_EQ(before, after);

    EXPECT_FALSE(mod.retire(14));
    ASSERT_TRUE(mod.retire(15));
    EXPECT_EQ(mod.outputHead()->pos, 6u);
    EXPECT_EQ(mod.outputHead()->serviceStart, 11u);
    EXPECT_TRUE(mod.tryStart(15));
}

TEST(SinglePortMemory, ConflictFreeStreamHitsMinimumLatency)
{
    // Odd stride on low-order interleave: conflict free, so the
    // latency must be exactly L + T + 1 (paper Sec. 2).
    const MemConfig cfg{3, 3, 1, 1};
    const LowOrderInterleave map(3);
    const auto stream = canonicalOrder(5, Stride(1), 64);
    const auto result = simulateAccess(cfg, map, stream);

    EXPECT_TRUE(result.conflictFree);
    EXPECT_EQ(result.latency, 64u + 8u + 1u);
    EXPECT_EQ(result.stallCycles, 0u);
    ASSERT_EQ(result.deliveries.size(), 64u);

    // One element per cycle after the T+1 startup, in order.
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(result.deliveries[i].element, i);
        EXPECT_EQ(result.deliveries[i].delivered, i + 9);
        EXPECT_EQ(result.deliveries[i].issued, i);
    }
}

TEST(SinglePortMemory, WorstCaseSingleModule)
{
    // Stride = M on interleave: every element in one module; the
    // memory serializes at T cycles per element.
    const MemConfig cfg{3, 3, 1, 1};
    const LowOrderInterleave map(3);
    const std::uint64_t len = 32;
    const auto stream = canonicalOrder(0, Stride(8), len);
    const auto result = simulateAccess(cfg, map, stream);

    EXPECT_FALSE(result.conflictFree);
    EXPECT_GT(result.stallCycles, 0u);
    // Asymptotically T cycles per element.
    EXPECT_GE(result.latency, (len - 1) * 8);
    // Delivery preserves module FIFO order.
    for (std::size_t i = 0; i < len; ++i)
        EXPECT_EQ(result.deliveries[i].element, i);
}

TEST(SinglePortMemory, PartialConflictLatencyBetweenBounds)
{
    // The Sec. 3 example (stride 12 in order) conflicts but spreads
    // over all modules: latency strictly between the minimum and
    // the single-module worst case.
    const MemConfig cfg{3, 3, 1, 1};
    const XorMatchedMapping map(3, 3);
    const auto stream = canonicalOrder(16, Stride(12), 64);
    const auto result = simulateAccess(cfg, map, stream);

    EXPECT_FALSE(result.conflictFree);
    EXPECT_GT(result.latency, 64u + 8u + 1u);
    EXPECT_LT(result.latency, 64u * 8u);
}

TEST(SinglePortMemory, InputBuffersAbsorbShortBursts)
{
    // Two requests to the same module back to back: with q = 2 the
    // second is accepted immediately (no processor stall), it just
    // waits in the buffer.
    const MemConfig shallow{2, 2, 1, 1};
    const MemConfig deep{2, 2, 2, 1};
    const LowOrderInterleave map(2);

    // Pattern: module 0 three times, then conflict free.  With
    // q = 1 the third request finds the input buffer still holding
    // the second; with q = 2 it is absorbed.
    std::vector<Request> stream = {
        {0, 0}, {4, 1}, {8, 2}, {1, 3}, {2, 4},
    };
    const auto r_shallow = simulateAccess(shallow, map, stream);
    const auto r_deep = simulateAccess(deep, map, stream);
    EXPECT_GT(r_shallow.stallCycles, 0u);
    EXPECT_EQ(r_deep.stallCycles, 0u);
    EXPECT_LE(r_deep.latency, r_shallow.latency);
}

TEST(SinglePortMemory, ReturnBusDeliversOldestReadyFirst)
{
    // Two modules finish in staggered order; the bus must deliver
    // by readiness, not module index.
    const MemConfig cfg{1, 1, 2, 2};
    const LowOrderInterleave map(1);
    // Module 1 first, then module 0.
    std::vector<Request> stream = {{1, 0}, {0, 1}};
    const auto result = simulateAccess(cfg, map, stream);
    ASSERT_EQ(result.deliveries.size(), 2u);
    EXPECT_EQ(result.deliveries[0].element, 0u);
    EXPECT_EQ(result.deliveries[1].element, 1u);
    EXPECT_LE(result.deliveries[0].ready, result.deliveries[1].ready);
}

TEST(SinglePortMemory, EmptyStream)
{
    const MemConfig cfg{2, 2, 1, 1};
    const LowOrderInterleave map(2);
    const auto result = simulateAccess(cfg, map, {});
    EXPECT_TRUE(result.conflictFree);
    EXPECT_TRUE(result.deliveries.empty());
}

TEST(SinglePortMemory, MismatchedMappingRejected)
{
    test::ScopedPanicThrow guard;
    const MemConfig cfg{3, 3, 1, 1};
    const LowOrderInterleave map(2);
    EXPECT_THROW(PerCycleMultiPort(cfg, map), std::runtime_error);
    EXPECT_THROW(TheoryBackend(cfg, map), std::runtime_error);
}

/** The message MemConfig::validate() rejects @p cfg with ("" when
 *  it accepts the shape). */
std::string
rejection(const MemConfig &cfg)
{
    test::ScopedPanicThrow guard;
    try {
        cfg.validate();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(MemConfig, RejectsUnrepresentableShapesWithAMessage)
{
    // A service time of 2^64 cycles would shift a Cycle out of range.
    EXPECT_NE(rejection(MemConfig{3, 64, 1, 1}).find("t must be < 64"),
              std::string::npos);
    // 2^32 modules would shift a 32-bit ModuleId out of range.
    EXPECT_NE(rejection(MemConfig{32, 3, 1, 1}).find("m must be < 32"),
              std::string::npos);
    // No buffer slot: nothing could ever be accepted or retired.
    EXPECT_NE(rejection(MemConfig{3, 3, 0, 1}).find("buffers must be"),
              std::string::npos);
    EXPECT_NE(rejection(MemConfig{3, 3, 1, 0}).find("buffers must be"),
              std::string::npos);

    // Every backend constructor runs the check before it sizes
    // anything from the shape.
    test::ScopedPanicThrow guard;
    const LowOrderInterleave map(3);
    for (const MemConfig &bad :
         {MemConfig{3, 64, 1, 1}, MemConfig{3, 3, 0, 1}}) {
        EXPECT_THROW(PerCycleMultiPort(bad, map), std::runtime_error);
        EXPECT_THROW(TheoryBackend(bad, map), std::runtime_error);
    }
}

TEST(MemConfig, AcceptsEveryShapeTheUnitConfigAdmits)
{
    // VectorUnitConfig::validate() admits t in [1, 8] and
    // t <= m <= lambda <= 24; the memory check must not be stricter.
    EXPECT_EQ(rejection(MemConfig{24, 8, 1, 1}), "");
    EXPECT_EQ(rejection(MemConfig{1, 1, 1, 1}), "");
    EXPECT_EQ(rejection(MemConfig{31, 63, 7, 9}), "");
}

TEST(SinglePortMemory, UnmatchedMemoryMoreModulesNoSlower)
{
    // M = T^2 modules can only help relative to M = T for the same
    // request addresses.
    const LowOrderInterleave map_small(2);
    const LowOrderInterleave map_big(4);
    const MemConfig small{2, 2, 1, 1};
    const MemConfig big{4, 2, 1, 1};
    for (std::uint64_t stride : {1ull, 2ull, 3ull, 6ull}) {
        const auto stream = canonicalOrder(3, Stride(stride), 64);
        const auto r_small = simulateAccess(small, map_small, stream);
        const auto r_big = simulateAccess(big, map_big, stream);
        EXPECT_LE(r_big.latency, r_small.latency)
            << "stride " << stride;
    }
}

TEST(SinglePortMemory, DeliveryOrderHelper)
{
    const MemConfig cfg{2, 2, 1, 1};
    const LowOrderInterleave map(2);
    const auto stream = canonicalOrder(0, Stride(1), 8);
    const auto result = simulateAccess(cfg, map, stream);
    const auto order = result.deliveryOrder();
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

} // namespace
} // namespace cfva
