/**
 * @file
 * Tests for the cycle-accurate multi-module memory simulator at
 * P = 1, the paper's single-port memory.
 */

#include <gtest/gtest.h>

#include "access/ordering.h"
#include "mapping/interleave.h"
#include "mapping/xor_matched.h"
#include "memsys/event_multi_port.h"
#include "memsys/multi_port.h"
#include "test_util.h"

namespace cfva {
namespace {

TEST(MemoryModule, LifecycleTiming)
{
    MemoryModule mod(0, /*T=*/4, /*q=*/1, /*q'=*/1);
    EXPECT_TRUE(mod.canAccept());
    EXPECT_TRUE(mod.drained());

    Delivery d;
    d.module = 0;
    d.arrived = 1;
    mod.accept(d);
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

    const Delivery out = mod.popOutput();
    EXPECT_EQ(out.ready, 5u);
    EXPECT_TRUE(mod.drained());
}

TEST(MemoryModule, OutputBackPressureBlocksService)
{
    MemoryModule mod(0, /*T=*/2, /*q=*/2, /*q'=*/1);
    Delivery d;
    d.module = 0;
    d.arrived = 0;
    mod.accept(d);
    mod.accept(d);

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
    Delivery d;
    d.module = 2;
    EXPECT_THROW(mod.accept(d), std::runtime_error);
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
    EXPECT_THROW(EventDrivenMultiPort(cfg, map), std::runtime_error);
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

TEST(MemoryModule, PeakOccupancyTracksBacklog)
{
    MemoryModule mod(0, /*T=*/4, /*q=*/3, /*q'=*/1);
    Delivery d;
    d.module = 0;
    d.arrived = 0;
    mod.accept(d);
    mod.accept(d);
    EXPECT_EQ(mod.peakInputOccupancy(), 2u);
    mod.tryStart(0); // drains one entry
    mod.accept(d);
    EXPECT_EQ(mod.peakInputOccupancy(), 2u); // peak, not current
    mod.accept(d);
    EXPECT_EQ(mod.peakInputOccupancy(), 3u);
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
