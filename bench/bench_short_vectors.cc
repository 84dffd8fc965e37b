/**
 * @file
 * Experiment E9 — Sec. 5C: vectors shorter than the register
 * length.  The compiler splits V into a head of k*2^{w+t-x}
 * elements accessed out of order plus an in-order tail; the bench
 * sweeps V and compares the split strategy against pure in-order
 * access.
 */

#include <iostream>

#include "access/short_vector.h"
#include "bench_util.h"
#include "common/table.h"
#include "core/access_unit.h"
#include "memsys/multi_port.h"
#include "theory/theory.h"

using namespace cfva;

int
main()
{
    bench::Audit audit("E9 / Sec. 5C: short-vector access");

    const VectorAccessUnit unit(paperMatchedExample());
    const Stride stride(12); // x = 2, in window, period 32

    TextTable table({"V", "head", "tail", "split latency",
                     "in-order latency", "min (V+T+1)"});
    bool never_worse = true;
    bool exact_multiples_cf = true;
    for (std::uint64_t v : {8ull, 16ull, 31ull, 32ull, 40ull, 64ull,
                            96ull, 100ull, 127ull}) {
        const auto split = planShortVector(3, 4, stride, v);
        const auto plan = unit.plan(16, stride, v);
        const auto r_split = unit.execute(plan);
        const auto r_inorder = simulateAccess(
            unit.memConfig(), unit.mapping(),
            canonicalOrder(16, stride, v));
        table.row(v, split.reordered, split.ordered, r_split.latency,
                  r_inorder.latency,
                  theory::minimumLatency(v, 8));
        never_worse &= r_split.latency <= r_inorder.latency;
        if (split.ordered == 0 && split.reordered > 0) {
            exact_multiples_cf &=
                r_split.latency == theory::minimumLatency(v, 8);
        }
    }
    table.print(std::cout,
                "Split vs in-order access, stride 12 on matched "
                "L=128 system");

    audit.check("split access never slower than in-order",
                never_worse);
    audit.check("period-multiple lengths reach minimum latency",
                exact_multiples_cf);

    // Sec. 5C's formula: the head length is V1 = k*2^{w+t-x}.
    const auto split = planShortVector(3, 4, stride, 100);
    audit.compare("head length for V=100 (k*32)", std::uint64_t{96},
                  split.reordered);
    audit.compare("tail length for V=100", std::uint64_t{4},
                  split.ordered);

    // Out-of-window family: no head exists, whole vector in order.
    const auto out = planShortVector(3, 4, Stride(32), 100);
    audit.compare("head for out-of-window stride", std::uint64_t{0},
                  out.reordered);

    return audit.finish();
}
