/**
 * @file
 * Experiment E3 — Theorem 1 / Sec. 3.3: the matched-memory
 * conflict-free window.  Paper example: L = 128, m = t = 3, s = 4
 * gives conflict-free access for families x = 0..4.
 *
 * Sweeps every family (several sigma and A1 per family) through the
 * VectorAccessUnit and reports the measured latency; inside the
 * window it must be exactly T+L+1 = 137, outside it must exceed it.
 */

#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/access_unit.h"
#include "memsys/multi_port.h"
#include "theory/theory.h"

using namespace cfva;

int
main()
{
    bench::Audit audit(
        "E3 / Theorem 1 window: matched memory, L=128, T=8, s=4");

    const VectorAccessUnit unit(paperMatchedExample());
    const std::uint64_t len = 128;
    const std::uint64_t minimum = theory::minimumLatency(len, 8);

    audit.compare("window low edge", 0, unit.window().lo);
    audit.compare("window high edge", 4, unit.window().hi);
    audit.compare("families in window (lambda-t+1)", 5u,
                  unit.window().families());

    TextTable table({"x", "example S", "policy", "latency(min)",
                     "latency(max)", "conflict-free", "in window"});
    bool window_ok = true;
    for (unsigned x = 0; x <= 6; ++x) {
        RunningStats lat;
        bool all_cf = true;
        std::string policy;
        for (std::uint64_t sigma : {1ull, 3ull, 5ull, 7ull}) {
            for (Addr a1 : {0ull, 1ull, 16ull, 777ull}) {
                const Stride s = Stride::fromFamily(sigma, x);
                const auto plan = unit.plan(a1, s, len);
                policy = to_string(plan.policy);
                const auto r = unit.execute(plan);
                lat.add(static_cast<double>(r.latency));
                all_cf &= r.conflictFree;
            }
        }
        const bool in_window = unit.window().contains(x);
        table.row(x, Stride::fromFamily(3, x).value(), policy,
                  lat.min(), lat.max(), all_cf ? "yes" : "no",
                  in_window ? "yes" : "no");
        if (in_window) {
            window_ok &= all_cf
                && lat.max() == static_cast<double>(minimum);
        } else {
            window_ok &= !all_cf
                && lat.min() > static_cast<double>(minimum);
        }
    }
    table.print(std::cout,
                "Latency sweep over families (minimum = 137)");
    audit.check("conflict free exactly for x in [0,4] at 137 cycles",
                window_ok);

    // The paper's contrast: ordered access on the same mapping
    // serves only the single family x = s.
    unsigned ordered_cf = 0;
    for (unsigned x = 0; x <= 6; ++x) {
        bool all_cf = true;
        for (std::uint64_t sigma : {1ull, 3ull}) {
            const Stride s = Stride::fromFamily(sigma, x);
            const auto r = simulateAccess(
                unit.memConfig(), unit.mapping(),
                canonicalOrder(16, s, len));
            all_cf &= r.conflictFree;
        }
        ordered_cf += all_cf ? 1 : 0;
    }
    audit.compare("families conflict free with ordered access", 1u,
                  ordered_cf);

    return audit.finish();
}
