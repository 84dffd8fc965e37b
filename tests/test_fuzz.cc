/**
 * @file
 * Randomized property tests: hundreds of random configurations and
 * accesses, each verifying the full paper pipeline — plan, reorder,
 * AGU equivalence, simulate, minimum latency — plus data round
 * trips through the vproc memory.  Deterministic seed, so failures
 * reproduce.
 */

#include <gtest/gtest.h>

#include <set>

#include "access/agu.h"
#include "access/ordering.h"
#include "common/stats.h"
#include "core/access_unit.h"
#include "memsys/multi_port.h"
#include "theory/theory.h"
#include "vproc/data_memory.h"

namespace cfva {
namespace {

TEST(Fuzz, MatchedConflictFreePipeline)
{
    Rng rng(0xFADED5EED);
    for (int trial = 0; trial < 150; ++trial) {
        const unsigned t = 2 + rng.below(3);          // 2..4
        const unsigned s = t + rng.below(3);          // t..t+2
        const unsigned min_lambda = std::max(s + 1, t + 1);
        const unsigned lambda = min_lambda + rng.below(3);
        const XorMatchedMapping map(t, s);
        const MemConfig cfg{t, t, 1, 1};
        const std::uint64_t len = std::uint64_t{1} << lambda;

        const auto window = theory::matchedWindow(s, t, lambda);
        const unsigned x =
            window.lo + rng.below(window.families());
        const std::uint64_t sigma = rng.oddBelow(64);
        const Addr a1 = rng.below(1 << 16);
        const Stride stride = Stride::fromFamily(sigma, x);

        SCOPED_TRACE("t=" + std::to_string(t) + " s="
                     + std::to_string(s) + " lambda="
                     + std::to_string(lambda) + " x="
                     + std::to_string(x) + " sigma="
                     + std::to_string(sigma) + " a1="
                     + std::to_string(a1));

        ASSERT_TRUE(subsequencePlanExists(t, s, stride, len));
        const auto plan = makeSubsequencePlan(t, s, stride, len);
        const auto stream = conflictFreeOrder(a1, plan, map);

        // Permutation + address consistency.
        std::set<std::uint64_t> elems;
        for (const auto &req : stream) {
            ASSERT_TRUE(elems.insert(req.element).second);
            ASSERT_EQ(req.addr, a1 + stride.value() * req.element);
        }

        // AGU equivalence.
        OutOfOrderAgu agu(a1, plan,
                          [&](Addr a) { return map.moduleOf(a); });
        const auto hw = drainAgu(agu);
        ASSERT_EQ(hw.size(), stream.size());
        for (std::size_t i = 0; i < hw.size(); ++i)
            ASSERT_EQ(hw[i].addr, stream[i].addr);

        // Minimum latency in simulation.
        const auto r = simulateAccess(cfg, map, stream);
        ASSERT_TRUE(r.conflictFree);
        ASSERT_EQ(r.latency, theory::minimumLatency(
                                 len, cfg.serviceCycles()));
    }
}

TEST(Fuzz, SectionedConflictFreePipeline)
{
    Rng rng(0xBEEFCAFE);
    for (int trial = 0; trial < 100; ++trial) {
        const unsigned t = 2 + rng.below(2);          // 2..3
        const unsigned lambda = 2 * t + rng.below(3); // >= 2t
        const unsigned s = lambda - t;
        const unsigned y = 2 * (lambda - t) + 1;
        const XorSectionedMapping map(t, s, y);
        const MemConfig cfg{2 * t, t, 1, 1};
        const std::uint64_t len = std::uint64_t{1} << lambda;

        const unsigned x = rng.below(y + 1);
        const std::uint64_t sigma = rng.oddBelow(32);
        const Addr a1 = rng.below(1 << 16);
        const Stride stride = Stride::fromFamily(sigma, x);
        const unsigned w = x <= s ? s : y;

        SCOPED_TRACE("t=" + std::to_string(t) + " lambda="
                     + std::to_string(lambda) + " x="
                     + std::to_string(x) + " sigma="
                     + std::to_string(sigma) + " a1="
                     + std::to_string(a1));

        ASSERT_TRUE(subsequencePlanExists(t, w, stride, len));
        const auto plan = makeSubsequencePlan(t, w, stride, len);
        const auto stream = conflictFreeOrder(a1, plan, map);
        const auto r = simulateAccess(cfg, map, stream);
        ASSERT_TRUE(r.conflictFree);
    }
}

TEST(Fuzz, AccessUnitAlwaysCorrectSometimesFast)
{
    // Any (stride, length) whatsoever: the unit must deliver every
    // element exactly once with consistent addresses; when it
    // promises conflict-freedom it must deliver minimum latency.
    Rng rng(0x5EEDED);
    const VectorAccessUnit unit(paperMatchedExample());
    for (int trial = 0; trial < 150; ++trial) {
        const std::uint64_t len = 1 + rng.below(300);
        const std::uint64_t sv = 1 + rng.below(512);
        const Addr a1 = rng.below(1 << 20);
        const Stride s(sv);

        SCOPED_TRACE("S=" + std::to_string(sv) + " len="
                     + std::to_string(len) + " a1="
                     + std::to_string(a1));

        const auto plan = unit.plan(a1, s, len);
        ASSERT_EQ(plan.stream.size(), len);
        const auto r = unit.execute(plan);
        ASSERT_EQ(r.deliveries.size(), len);

        std::set<std::uint64_t> elems;
        for (const auto &d : r.deliveries) {
            ASSERT_TRUE(elems.insert(d.element).second);
            ASSERT_EQ(d.addr, a1 + sv * d.element);
        }
        if (plan.expectConflictFree) {
            ASSERT_TRUE(r.conflictFree);
            ASSERT_EQ(r.latency,
                      theory::minimumLatency(len, 8));
        }
    }
}

TEST(Fuzz, DataMemoryRandomAccessPattern)
{
    Rng rng(0xDA7A);
    const XorSectionedMapping map(2, 3, 7);
    DataMemory mem(map);
    std::vector<std::pair<Addr, std::uint64_t>> written;
    for (int i = 0; i < 3000; ++i) {
        const Addr a = rng.below(1 << 20);
        const std::uint64_t v = rng.next();
        mem.store(a, v);
        written.emplace_back(a, v);
    }
    // Later writes to the same address win; replay forward.
    std::unordered_map<Addr, std::uint64_t> model;
    for (const auto &[a, v] : written)
        model[a] = v;
    for (const auto &[a, v] : model)
        EXPECT_EQ(mem.load(a), v);
}

} // namespace
} // namespace cfva
