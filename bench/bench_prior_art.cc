/**
 * @file
 * Experiment E14 (ablation) — the paper's scheme vs the prior art
 * its introduction cites:
 *
 *   [11] Harper & Linebarger dynamic storage: retune the mapping
 *        per stride; conflict free in order, but retuning relaid
 *        the whole array — hopeless when one array is walked with
 *        two different strides.
 *   [12] Rau pseudo-random interleaving: no pathological stride,
 *        but no guaranteed minimum latency either.
 *   [5]  Harper & Jump buffers: deeper q recovers steady-state
 *        throughput for long vectors but cannot restore the
 *        register-length transient the paper optimizes.
 */

#include <iostream>

#include "access/ordering.h"
#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/access_unit.h"
#include "mapping/dynamic.h"
#include "mapping/prand.h"
#include "memsys/multi_port.h"
#include "theory/theory.h"

using namespace cfva;

int
main()
{
    bench::Audit audit("E14 / ablation: window scheme vs dynamic "
                       "[11], pseudo-random [12], buffers [5]");

    const unsigned t = 3, lambda = 7;
    const std::uint64_t len = 1u << lambda;
    const MemConfig cfg{t, t, 1, 1};
    const std::uint64_t minimum = theory::minimumLatency(len, 8);

    // ---- 1. Dynamic scheme: perfect per stride, poisonous across
    //         strides --------------------------------------------
    DynamicFieldMapping dynamic(t, 0);
    bool dynamic_cf = true;
    for (unsigned x = 0; x <= 6; ++x) {
        const Stride s = Stride::fromFamily(3, x);
        dynamic.retuneFor(s);
        const auto r = simulateAccess(cfg, dynamic,
                                      canonicalOrder(5, s, len));
        dynamic_cf &= r.conflictFree;
    }
    audit.check("[11] dynamic mapping: every family conflict free "
                "in order when retuned", dynamic_cf);
    audit.compare("retunes needed for 7 families", 6u,
                  dynamic.retunes());

    // The cost: switching tunings moves nearly all data.
    const double moved = DynamicFieldMapping::displacedBy(
        t, /*p_a=*/0, /*p_b=*/2, /*probe=*/1 << 16);
    std::cout << "  fraction of addresses relocated when retuning "
              << "p=0 -> p=2: " << fixed(moved, 4) << "\n";
    audit.check("[11] retuning relocates >85% of the address space",
                moved > 0.85);

    // Row+column walk on ONE array: the dynamic scheme must pick
    // one tuning; whichever it picks, the other walk conflicts.
    // The paper's static window serves both at minimum latency.
    const Stride row_stride(1);       // x = 0
    const Stride col_stride(16);      // x = 4 (leading dim 16)
    DynamicFieldMapping tuned_rows(t, 0);
    const auto col_on_rows = simulateAccess(
        cfg, tuned_rows, canonicalOrder(5, col_stride, len));
    DynamicFieldMapping tuned_cols(t, 4);
    const auto row_on_cols = simulateAccess(
        cfg, tuned_cols, canonicalOrder(5, row_stride, len));
    audit.check("[11] one tuning cannot serve both row and column "
                "walks",
                !col_on_rows.conflictFree && !row_on_cols.conflictFree);

    const VectorAccessUnit window_unit(paperMatchedExample());
    const auto row_w = window_unit.access(5, row_stride, len);
    const auto col_w = window_unit.access(5, col_stride, len);
    audit.check("paper scheme serves both walks at minimum latency",
                row_w.conflictFree && col_w.conflictFree);

    // ---- 2. Pseudo-random interleaving -------------------------
    const auto prand = makePseudoRandomMapping(t, 24, 0xD1CE);
    RunningStats prand_lat, window_lat;
    unsigned prand_cf = 0, window_cf = 0;
    const unsigned probes = 64;
    for (std::uint64_t sv = 1; sv <= probes; ++sv) {
        const Stride s(sv);
        const auto rp = simulateAccess(cfg, prand,
                                       canonicalOrder(5, s, len));
        prand_lat.add(static_cast<double>(rp.latency));
        prand_cf += rp.conflictFree ? 1 : 0;
        const auto rw = window_unit.access(5, s, len);
        window_lat.add(static_cast<double>(rw.latency));
        window_cf += rw.conflictFree ? 1 : 0;
    }
    TextTable pr({"mapping", "CF strides", "latency mean",
                  "latency max"});
    pr.row("pseudo-random [12]",
           ratio(prand_cf, probes), fixed(prand_lat.mean(), 1),
           prand_lat.max());
    pr.row("window scheme (paper)",
           ratio(window_cf, probes), fixed(window_lat.mean(), 1),
           window_lat.max());
    pr.print(std::cout,
             "Strides 1..64, L = 128, matched memory (minimum 137)");
    audit.check("[12] pseudo-random: no stride catastrophically bad "
                "(max < 3x minimum)",
                prand_lat.max()
                    < 3.0 * static_cast<double>(minimum));
    audit.check("[12] pseudo-random guarantees almost no stride the "
                "minimum", prand_cf < probes / 4);
    audit.check("paper scheme: most strides at exact minimum",
                window_cf > (probes * 9) / 10);

    // ---- 3. Buffers [5]: steady state vs transient --------------
    TextTable buf({"q", "in-order latency", "overhead vs minimum"});
    bool buffers_never_reach_min = true;
    for (unsigned q : {1u, 2u, 4u, 8u, 16u}) {
        const MemConfig qcfg{t, t, q, 1};
        const auto r = simulateAccess(
            qcfg, window_unit.mapping(),
            canonicalOrder(16, Stride(12), len));
        buf.row(q, r.latency, r.latency - minimum);
        buffers_never_reach_min &= r.latency > minimum;
    }
    buf.print(std::cout,
              "In-order stride 12 with deeper input buffers "
              "(Harper & Jump [5])");
    audit.check("[5] no buffer depth restores the register-length "
                "transient; the reordering does",
                buffers_never_reach_min);
    const auto reordered = window_unit.access(16, Stride(12), len);
    audit.compare("paper scheme latency for the same access",
                  minimum, reordered.latency);

    return audit.finish();
}
