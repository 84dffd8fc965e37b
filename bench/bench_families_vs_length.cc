/**
 * @file
 * Experiment E10 — Sec. 5H: conflict-free family counts versus
 * vector length, unmatched memory with m = 2t.
 *
 * Paper: ordered access yields t+1 families for ANY length; the
 * proposed scheme yields only 2 families for any length but
 * 2(lambda-t+1) families for the designed length L = 2^lambda.
 */

#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/access_unit.h"
#include "memsys/multi_port.h"
#include "theory/theory.h"

using namespace cfva;

namespace {

/** Families x <= x_max that are conflict free at length len. */
unsigned
measuredFamilies(const VectorAccessUnit &unit, unsigned x_max,
                 std::uint64_t len)
{
    unsigned count = 0;
    for (unsigned x = 0; x <= x_max; ++x) {
        bool all_cf = true;
        for (std::uint64_t sigma : {1ull, 3ull}) {
            for (Addr a1 : {0ull, 5ull}) {
                all_cf &= unit.access(a1, Stride::fromFamily(sigma, x),
                                      len)
                              .conflictFree;
            }
        }
        count += all_cf ? 1 : 0;
    }
    return count;
}

} // namespace

int
main()
{
    bench::Audit audit("E10 / Sec. 5H: conflict-free families vs "
                       "vector length (m = 2t)");

    const unsigned t = 3;

    TextTable table({"lambda", "L", "ordered (t+1)",
                     "proposed theory", "proposed measured"});
    bool all_ok = true;
    for (unsigned lambda = 6; lambda <= 9; ++lambda) {
        VectorUnitConfig cfg;
        cfg.kind = MemoryKind::Sectioned;
        cfg.t = t;
        cfg.lambda = lambda;
        const VectorAccessUnit unit(cfg);
        const unsigned theory_count =
            theory::proposedFamiliesForLength(t, lambda);
        const unsigned measured = measuredFamilies(
            unit, theory::recommendedY(t, lambda) + 1,
            std::uint64_t{1} << lambda);
        table.row(lambda, 1u << lambda,
                  theory::orderedFamiliesAnyLength(2 * t, t),
                  theory_count, measured);
        all_ok &= measured == theory_count;
    }
    table.print(std::cout,
                "Families conflict free at the designed length");
    audit.check("measured = 2(lambda-t+1) for every lambda", all_ok);

    // For an arbitrary length, only two families stay conflict free
    // under in-order issue: x = s and x = y (Sec. 5H).  Probe with
    // a prime length so no Lemma 1 multiple can hide the effect.
    const VectorUnitConfig cfg = paperSectionedExample();
    const VectorAccessUnit unit(cfg);
    unsigned any_length_count = 0;
    const std::uint64_t odd_len = 97;
    for (unsigned x = 0; x <= 10; ++x) {
        bool all_cf = true;
        for (std::uint64_t sigma : {1ull, 3ull}) {
            for (Addr a1 : {3ull, 64ull}) {
                const auto r = simulateAccess(
                    unit.memConfig(), unit.mapping(),
                    canonicalOrder(a1, Stride::fromFamily(sigma, x),
                                   odd_len));
                all_cf &= r.conflictFree;
            }
        }
        any_length_count += all_cf ? 1 : 0;
    }
    audit.compare("families conflict free in order at length 97",
                  theory::proposedFamiliesAnyLength(),
                  any_length_count);

    std::cout << "  (ordered access on m=2t keeps t+1 = "
              << theory::orderedFamiliesAnyLength(2 * t, t)
              << " families at any length; the proposed scheme "
                 "trades that for "
              << theory::proposedFamiliesForLength(t, 7)
              << " families at the register length)\n";

    return audit.finish();
}
