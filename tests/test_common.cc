/**
 * @file
 * Unit tests for tables, statistics, RNG, and logging helpers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>

#include "common/stats.h"
#include "common/table.h"
#include "test_util.h"

namespace cfva {
namespace {

TEST(TextTable, AlignsAndStoresCells)
{
    TextTable t({"x", "latency"});
    t.row(0, 137);
    t.row(1, 140);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.columns(), 2u);
    EXPECT_EQ(t.cell(0, 1), "137");
    EXPECT_EQ(t.cell(1, 0), "1");

    std::ostringstream os;
    t.print(os, "demo");
    const std::string out = os.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("latency"), std::string::npos);
    EXPECT_NE(out.find("137"), std::string::npos);
}

TEST(TextTable, Csv)
{
    TextTable t({"a", "b"});
    t.row("p", "q");
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\np,q\n");
}

TEST(TextTable, RejectsShortRow)
{
    test::ScopedPanicThrow guard;
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::runtime_error);
}

TEST(TextTable, CellOutOfRange)
{
    test::ScopedPanicThrow guard;
    TextTable t({"a"});
    EXPECT_THROW(t.cell(0, 0), std::runtime_error);
}

TEST(Formatting, FixedAndRatio)
{
    EXPECT_EQ(fixed(0.9142, 3), "0.914");
    EXPECT_EQ(fixed(2.0, 1), "2.0");
    EXPECT_EQ(ratio(31, 32), "31/32");
    EXPECT_EQ(ratio(0, UINT64_MAX), "0/18446744073709551615");
}

// The put* primitive prints every uint64_t exactly as stream
// insertion does, writes where it is told, and panics rather than
// overrun its buffer.
TEST(Formatting, PutWritesIntoTheBuffer)
{
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{9},
                            std::uint64_t{10}, std::uint64_t{1} << 32,
                            UINT64_MAX - 1, UINT64_MAX}) {
        std::ostringstream os;
        os << v;
        char buf[20];
        EXPECT_EQ(std::string(buf, putUint(buf, buf + 20, v)), os.str());
    }
    char row[20];
    char *p = putText(row, row + 20, "x=");
    p = putUint(p, row + 20, 42);
    p = putText(p, row + 20, ",");
    p = putFixed(p, row + 20, 0.5, 4);
    EXPECT_EQ(std::string(row, p), "x=42,0.5000");

    test::ScopedPanicThrow guard;
    EXPECT_THROW(putUint(row, row + 19, UINT64_MAX), std::runtime_error);
    EXPECT_THROW(putFixed(row, row + 5, 0.5, 4), std::runtime_error);
    EXPECT_THROW(putText(row, row + 1, "ab"), std::runtime_error);
}

// fixed() formats through std::to_chars; it must print exactly what
// an iostream with std::fixed and setprecision(digits) prints, ties
// and signed zero included, so reports stay byte-identical.
TEST(Formatting, FixedMatchesIostreamFormatting)
{
    for (double v : {0.0, -0.0, 0.125, 2.5, 2.675, 0.5, 1.5, -2.5,
                     0.9142, 1.0 / 3.0, 99.99995, 123456.789, 1e15,
                     -1e15, 1e-7}) {
        for (int digits = 0; digits <= 6; ++digits) {
            std::ostringstream os;
            os << std::fixed << std::setprecision(digits) << v;
            EXPECT_EQ(fixed(v, digits), os.str())
                << v << " at " << digits << " digits";
        }
    }
}

TEST(RunningStats, Basics)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);

    s.add(2.0);
    s.add(4.0);
    s.add(6.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
}

TEST(RunningStats, Merge)
{
    RunningStats a, b;
    a.add(1.0);
    a.add(3.0);
    b.add(5.0);
    b.add(7.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 7.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4);
    h.add(0);
    h.add(1);
    h.add(1);
    h.add(3);
    h.add(7); // overflow
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());

    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(17), 17u);
        const std::uint64_t odd = r.oddBelow(64);
        EXPECT_EQ(odd % 2, 1u);
        EXPECT_LT(odd, 64u);
    }
}

TEST(Logging, PanicThrowsUnderGuard)
{
    test::ScopedPanicThrow guard;
    EXPECT_THROW(cfva_panic("boom ", 42), std::runtime_error);
    EXPECT_THROW(cfva_fatal("bad config"), std::runtime_error);
}

TEST(Logging, AssertPassesAndFails)
{
    test::ScopedPanicThrow guard;
    cfva_assert(1 + 1 == 2, "arithmetic holds");
    EXPECT_THROW(cfva_assert(false, "must fail"), std::runtime_error);
}

} // namespace
} // namespace cfva
