/**
 * @file
 * Experiment E2 — the Sec. 3 worked example: stride 12, A1 = 16,
 * L = 64 on the Figure 3 system (m = t = 3, s = 3).
 *
 * Reproduces the canonical temporal distribution, the Sec. 3.1
 * subsequence module orders, and then measures the three access
 * modes in the cycle-accurate simulator:
 *   in-order, subsequence order (q=2, q'=1), conflict-free order.
 */

#include <iostream>

#include "access/agu.h"
#include "access/ordering.h"
#include "bench_util.h"
#include "common/table.h"
#include "mapping/analysis.h"
#include "memsys/multi_port.h"
#include "theory/theory.h"

using namespace cfva;

int
main()
{
    bench::Audit audit("E2 / Sec. 3 worked example: S=12, A1=16, "
                       "L=64, m=t=3, s=3");

    const XorMatchedMapping map(3, 3);
    const Addr a1 = 16;
    const Stride stride(12);
    const std::uint64_t len = 64;

    // --- Canonical temporal distribution --------------------------
    const ModuleId paper_ctp[16] = {2, 7, 5, 2, 0, 5, 3, 0,
                                    6, 3, 1, 6, 4, 1, 7, 4};
    const auto ctp = canonicalTemporal(map, a1, stride, 16);
    std::cout << "  CTP_x (one period): ";
    bool ctp_ok = true;
    for (std::size_t i = 0; i < 16; ++i) {
        std::cout << ctp[i] << (i + 1 < 16 ? ", " : "\n");
        ctp_ok &= ctp[i] == paper_ctp[i];
    }
    audit.check("CTP matches the paper's 2,7,5,2,0,5,3,0,...",
                ctp_ok);
    audit.compare("period P_2", std::uint64_t{16},
                  measuredPeriod(map, a1, stride, 16, 64));

    // --- Subsequence structure -------------------------------------
    const auto plan = makeSubsequencePlan(3, 3, stride, len);
    const auto sub_stream = subsequenceOrder(a1, plan);
    const ModuleId paper_sub0[8] = {2, 5, 0, 3, 6, 1, 4, 7};
    const ModuleId paper_sub1[8] = {7, 2, 5, 0, 3, 6, 1, 4};
    bool sub_ok = true;
    for (std::size_t i = 0; i < 8; ++i) {
        sub_ok &= map.moduleOf(sub_stream[i].addr) == paper_sub0[i];
        sub_ok &=
            map.moduleOf(sub_stream[8 + i].addr) == paper_sub1[i];
    }
    audit.check("subsequence module orders (2,5,0,3,6,1,4,7) and "
                "(7,2,5,0,3,6,1,4)", sub_ok);

    // --- Simulated latency of the three access modes ---------------
    const MemConfig plain{3, 3, 1, 1};
    const MemConfig buffered{3, 3, 2, 1}; // Sec. 3.1 bound setting

    const auto r_inorder =
        simulateAccess(plain, map, canonicalOrder(a1, stride, len));
    const auto r_sub =
        simulateAccess(buffered, map, subsequenceOrder(a1, plan));
    const auto r_cf = simulateAccess(
        plain, map, conflictFreeOrder(a1, plan, map));

    TextTable table({"ordering", "q", "latency", "minimum",
                     "conflict-free"});
    table.row("in-order", 1, r_inorder.latency, 73,
              r_inorder.conflictFree ? "yes" : "no");
    table.row("subsequence (3.1)", 2, r_sub.latency, 73,
              r_sub.conflictFree ? "yes" : "no");
    table.row("conflict-free (3.2)", 1, r_cf.latency, 73,
              r_cf.conflictFree ? "yes" : "no");
    table.print(std::cout, "Simulated access latency (T+L+1 = 73)");

    audit.check("in-order access is NOT conflict free",
                !r_inorder.conflictFree);
    audit.check("subsequence latency within 2T+L = 80",
                r_sub.latency
                    <= theory::subsequenceLatencyBound(len, 8));
    audit.compare("conflict-free latency (= T+L+1)",
                  std::uint64_t{73}, r_cf.latency);
    audit.check("conflict-free flag set", r_cf.conflictFree);

    // --- The Fig. 6 AGU issues the same stream ---------------------
    OutOfOrderAgu agu(a1, plan,
                      [&](Addr a) { return map.moduleOf(a); });
    const auto agu_stream = drainAgu(agu);
    const auto cf_stream = conflictFreeOrder(a1, plan, map);
    bool agu_ok = agu_stream.size() == cf_stream.size();
    for (std::size_t i = 0; agu_ok && i < agu_stream.size(); ++i)
        agu_ok = agu_stream[i].addr == cf_stream[i].addr;
    audit.check("Fig. 6 AGU reproduces the conflict-free stream",
                agu_ok);

    return audit.finish();
}
