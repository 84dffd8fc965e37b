/**
 * @file
 * Property sweeps of the Fig. 6 AGU with the Sec. 4.2 sectioned
 * keys (supermodule and section), plus buffer-depth sweeps of the
 * Sec. 3.1 latency bound — the corners the main AGU tests leave to
 * parameterized coverage.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "access/agu.h"
#include "mapping/xor_sectioned.h"
#include "memsys/multi_port.h"
#include "theory/theory.h"

namespace cfva {
namespace {

/** (t, lambda, x, sigma, a1) over the recommended sectioned shape. */
class SectionedAguSweep : public ::testing::TestWithParam<
    std::tuple<unsigned, unsigned, unsigned, std::uint64_t, Addr>>
{
};

TEST_P(SectionedAguSweep, HardwareMatchesGeneratorAndSimulatesCF)
{
    const auto [t, lambda, x, sigma, a1] = GetParam();
    const unsigned s = lambda - t;
    const unsigned y = 2 * (lambda - t) + 1;
    if (s < t || y < s + t)
        GTEST_SKIP() << "shape invalid for these parameters";
    const XorSectionedMapping map(t, s, y);
    const std::uint64_t len = std::uint64_t{1} << lambda;
    const Stride stride = Stride::fromFamily(sigma, x);
    const unsigned w = x <= s ? s : y;
    if (x > y || !subsequencePlanExists(t, w, stride, len))
        GTEST_SKIP() << "family outside the window";

    const auto plan = makeSubsequencePlan(t, w, stride, len);
    std::function<ModuleId(Addr)> key;
    if (x <= s)
        key = [&map](Addr a) { return map.supermoduleOf(a); };
    else
        key = [&map](Addr a) { return map.sectionOf(a); };

    OutOfOrderAgu agu(a1, plan, key);
    const auto expect = conflictFreeOrderByKey(a1, plan, key);
    const auto got = drainAgu(agu);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].addr, expect[i].addr) << "cycle " << i;
        ASSERT_EQ(got[i].element, expect[i].element);
    }

    const MemConfig cfg{2 * t, t, 1, 1};
    const auto r = simulateAccess(cfg, map, expect);
    EXPECT_TRUE(r.conflictFree);
    EXPECT_EQ(r.latency,
              theory::minimumLatency(len, cfg.serviceCycles()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SectionedAguSweep,
    ::testing::Combine(
        ::testing::Values(2u, 3u),                    // t
        ::testing::Values(5u, 6u, 7u),                // lambda
        ::testing::Values(0u, 2u, 4u, 5u, 7u, 9u),    // x
        ::testing::Values(1ull, 3ull, 11ull),         // sigma
        ::testing::Values<Addr>(0, 6, 513, 4097)));

/** Buffer-depth sweep of the Sec. 3.1 bound: q >= 2 suffices and
 *  deeper buffers cannot beat the conflict-free minimum. */
class BufferDepthSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BufferDepthSweep, SubsequenceLatencyWithinBoundForQ2Plus)
{
    const unsigned q = GetParam();
    const unsigned t = 3, s = 4, lambda = 7;
    const XorMatchedMapping map(t, s);
    const MemConfig cfg{t, t, q, 1};
    const std::uint64_t len = 1u << lambda;
    const std::uint64_t t_cycles = cfg.serviceCycles();

    for (unsigned x = 0; x <= s; ++x) {
        const Stride stride = Stride::fromFamily(3, x);
        const auto plan = makeSubsequencePlan(t, s, stride, len);
        const auto r =
            simulateAccess(cfg, map, subsequenceOrder(16, plan));
        EXPECT_GE(r.latency,
                  theory::minimumLatency(len, t_cycles));
        if (q >= 2) {
            EXPECT_LE(r.latency,
                      theory::subsequenceLatencyBound(len, t_cycles))
                << "q=" << q << " x=" << x;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BufferDepthSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

} // namespace
} // namespace cfva
