/**
 * @file
 * Property sweeps for the conflict-free orderings: the Theorem 1 /
 * Theorem 3 windows realized in simulation at minimum latency, for
 * grids of (t, s, lambda, x, sigma, A1).
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "access/ordering.h"
#include "mapping/analysis.h"
#include "memsys/multi_port.h"
#include "theory/theory.h"

namespace cfva {
namespace {

/** Checks a request stream is a permutation of 0..L-1 with
 *  addresses A1 + S*element. */
void
expectValidStream(const std::vector<Request> &stream, Addr a1,
                  const Stride &s, std::uint64_t length)
{
    ASSERT_EQ(stream.size(), length);
    std::set<std::uint64_t> elems;
    for (const auto &req : stream) {
        EXPECT_TRUE(elems.insert(req.element).second)
            << "duplicate element " << req.element;
        EXPECT_LT(req.element, length);
        EXPECT_EQ(req.addr, a1 + s.value() * req.element);
    }
}

/**
 * Matched-memory sweep (Theorem 1): every family in the window
 * [s-N, s] is conflict free at minimum latency under the Sec. 3.2
 * ordering, for every sigma and A1 probed.
 */
class MatchedWindowProperty : public ::testing::TestWithParam<
    std::tuple<unsigned, unsigned, unsigned>> // t, s, lambda
{
};

TEST_P(MatchedWindowProperty, WholeWindowConflictFree)
{
    const auto [t, s, lambda] = GetParam();
    const XorMatchedMapping map(t, s);
    const MemConfig cfg{t, t, 1, 1};
    const std::uint64_t len = std::uint64_t{1} << lambda;
    const auto window = theory::matchedWindow(s, t, lambda);

    for (int x = window.lo; x <= window.hi; ++x) {
        for (std::uint64_t sigma : {1ull, 3ull, 5ull, 11ull}) {
            for (Addr a1 : {0ull, 1ull, 6ull, 16ull, 1000ull}) {
                const Stride stride =
                    Stride::fromFamily(sigma, static_cast<unsigned>(x));
                ASSERT_TRUE(
                    subsequencePlanExists(t, s, stride, len))
                    << "x=" << x << " lambda=" << lambda;
                const auto plan =
                    makeSubsequencePlan(t, s, stride, len);
                const auto stream = conflictFreeOrder(a1, plan, map);
                expectValidStream(stream, a1, stride, len);

                const auto result = simulateAccess(cfg, map, stream);
                EXPECT_TRUE(result.conflictFree)
                    << "x=" << x << " sigma=" << sigma << " a1=" << a1;
                EXPECT_EQ(result.latency,
                          theory::minimumLatency(len, cfg.serviceCycles()));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatchedWindowProperty,
    ::testing::Values(std::make_tuple(2u, 3u, 5u),
                      std::make_tuple(2u, 3u, 6u),
                      std::make_tuple(2u, 4u, 6u),
                      std::make_tuple(3u, 3u, 6u),
                      std::make_tuple(3u, 4u, 7u),   // paper example
                      std::make_tuple(3u, 5u, 8u),
                      std::make_tuple(4u, 4u, 8u)));

/**
 * Sectioned-memory sweep (Theorem 3): both windows [s-N, s] and
 * [y-R, y] are conflict free at minimum latency under the Sec. 4.2
 * reordering.
 */
class SectionedWindowProperty : public ::testing::TestWithParam<
    std::tuple<unsigned, unsigned, unsigned, unsigned>>
    // t, s, y, lambda
{
};

TEST_P(SectionedWindowProperty, BothWindowsConflictFree)
{
    const auto [t, s, y, lambda] = GetParam();
    const XorSectionedMapping map(t, s, y);
    const MemConfig cfg{2 * t, t, 1, 1};
    const std::uint64_t len = std::uint64_t{1} << lambda;
    const auto wins = theory::sectionedWindows(s, y, t, lambda);

    auto check = [&](unsigned x, unsigned w) {
        for (std::uint64_t sigma : {1ull, 3ull, 7ull}) {
            for (Addr a1 : {0ull, 6ull, 129ull, 777ull}) {
                const Stride stride = Stride::fromFamily(sigma, x);
                ASSERT_TRUE(subsequencePlanExists(t, w, stride, len));
                const auto plan =
                    makeSubsequencePlan(t, w, stride, len);
                const auto stream = conflictFreeOrder(a1, plan, map);
                expectValidStream(stream, a1, stride, len);

                const auto result = simulateAccess(cfg, map, stream);
                EXPECT_TRUE(result.conflictFree)
                    << "x=" << x << " w=" << w << " sigma=" << sigma
                    << " a1=" << a1;
            }
        }
    };

    for (int x = wins.low.lo; x <= wins.low.hi; ++x)
        check(static_cast<unsigned>(x), s);
    for (int x = std::max(wins.high.lo, wins.low.hi + 1);
         x <= wins.high.hi; ++x) {
        check(static_cast<unsigned>(x), y);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SectionedWindowProperty,
    ::testing::Values(std::make_tuple(2u, 3u, 7u, 5u), // Figure 7
                      std::make_tuple(2u, 3u, 7u, 6u),
                      std::make_tuple(2u, 4u, 9u, 6u),
                      std::make_tuple(3u, 4u, 9u, 7u), // paper 4.3
                      std::make_tuple(2u, 3u, 6u, 5u)));

/**
 * Negative control: outside the window the vector is not T-matched,
 * so *no* ordering can reach minimum latency (the bound is
 * structural, not an artifact of our orderings).
 */
class OutsideWindowProperty : public ::testing::TestWithParam<
    std::tuple<unsigned, unsigned, unsigned, unsigned>>
    // t, s, lambda, x (> s)
{
};

TEST_P(OutsideWindowProperty, CannotReachMinimumLatency)
{
    const auto [t, s, lambda, x] = GetParam();
    ASSERT_GT(x, s);
    const XorMatchedMapping map(t, s);
    const MemConfig cfg{t, t, 4, 4};
    const std::uint64_t len = std::uint64_t{1} << lambda;
    const Stride stride = Stride::fromFamily(3, x);

    // The spatial distribution caps throughput: with only
    // 2^{s+t-x} modules holding elements, latency is at least
    // roughly L * T / 2^{s+t-x}.
    const auto result =
        simulateAccess(cfg, map, canonicalOrder(5, stride, len));
    EXPECT_FALSE(result.conflictFree);
    EXPECT_GT(result.latency,
              theory::minimumLatency(len, cfg.serviceCycles()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OutsideWindowProperty,
    ::testing::Values(std::make_tuple(3u, 3u, 6u, 4u),
                      std::make_tuple(3u, 3u, 6u, 5u),
                      std::make_tuple(3u, 4u, 7u, 5u),
                      std::make_tuple(2u, 3u, 6u, 4u)));

/**
 * The Sec. 3.1 latency bound: with q = 2, q' = 1, the plain
 * subsequence ordering stays within 2T + L cycles (excess <= T-1
 * over the minimum).
 */
class SubsequenceLatencyBound : public ::testing::TestWithParam<
    std::tuple<unsigned, unsigned, unsigned>> // t, s, lambda
{
};

TEST_P(SubsequenceLatencyBound, WithinTwoTPlusL)
{
    const auto [t, s, lambda] = GetParam();
    const XorMatchedMapping map(t, s);
    const MemConfig cfg{t, t, 2, 1};
    const std::uint64_t len = std::uint64_t{1} << lambda;
    const std::uint64_t t_cycles = cfg.serviceCycles();

    for (unsigned x = 0; x <= s; ++x) {
        if (!subsequencePlanExists(t, s, Stride::fromFamily(3, x),
                                   len)) {
            continue;
        }
        for (std::uint64_t sigma : {1ull, 3ull, 9ull}) {
            for (Addr a1 : {0ull, 16ull, 345ull}) {
                const Stride stride = Stride::fromFamily(sigma, x);
                const auto plan =
                    makeSubsequencePlan(t, s, stride, len);
                const auto stream = subsequenceOrder(a1, plan);
                const auto result = simulateAccess(cfg, map, stream);
                EXPECT_LE(result.latency,
                          theory::subsequenceLatencyBound(len,
                                                          t_cycles))
                    << "x=" << x << " sigma=" << sigma
                    << " a1=" << a1;
                EXPECT_GE(result.latency,
                          theory::minimumLatency(len, t_cycles));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SubsequenceLatencyBound,
    ::testing::Values(std::make_tuple(2u, 3u, 6u),
                      std::make_tuple(3u, 3u, 6u),
                      std::make_tuple(3u, 4u, 7u),
                      std::make_tuple(4u, 4u, 8u)));

} // namespace
} // namespace cfva
