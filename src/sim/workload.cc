#include "sim/workload.h"

#include <sstream>

#include "common/logging.h"
#include "mapping/dynamic.h"

namespace cfva::sim {

const char *
to_string(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Single:
        return "single";
      case WorkloadKind::Chain:
        return "chain";
      case WorkloadKind::Retune:
        return "retune";
      case WorkloadKind::Stencil:
        return "stencil";
    }
    return "?";
}

std::string
Workload::label() const
{
    std::ostringstream os;
    os << to_string(kind);
    switch (kind) {
      case WorkloadKind::Single:
        break;
      case WorkloadKind::Chain:
      case WorkloadKind::Stencil:
        os << ":e" << execLatency;
        break;
      case WorkloadKind::Retune:
        os << ":p" << retunePeriod;
        break;
    }
    return os.str();
}

void
Workload::validate() const
{
    cfva_assert(execLatency >= 1,
                "workload execute latency must be >= 1");
    cfva_assert(retunePeriod >= 1,
                "workload retune period must be >= 1");
}

bool
Workload::cyclesFit(std::uint64_t length, unsigned ports,
                    Cycle serviceCycles) const
{
    std::uint64_t accesses = 1;
    switch (kind) {
      case WorkloadKind::Single:
      case WorkloadKind::Chain:
        break;
      case WorkloadKind::Stencil:
        accesses = 4;
        break;
      case WorkloadKind::Retune:
        accesses = 2 * std::uint64_t{retunePeriod};
        break;
    }
    // One access ends within the wedge guard over ports x length
    // requests: (P*L + 4P) * (T + 2) + 64 cycles.
    std::uint64_t requests = 0, perAccess = 0, total = 0;
    bool ok = checkedMul(ports, length, requests)
              && checkedAdd(requests, 4 * std::uint64_t{ports},
                            requests)
              && checkedMul(requests, serviceCycles + 2, perAccess)
              && checkedAdd(perAccess, 65, perAccess)
              && checkedMul(perAccess, accesses, total);
    if (kind == WorkloadKind::Retune) {
        // At most two relayouts of ceil(2 * T * length / M) cycles.
        std::uint64_t relayout = 0;
        ok = ok && checkedMul(4 * serviceCycles, length, relayout)
             && checkedAdd(relayout, 2, relayout)
             && checkedAdd(total, relayout, total);
    }
    if (kind == WorkloadKind::Chain || kind == WorkloadKind::Stencil) {
        ok = ok && checkedAdd(total, length, total)
             && checkedAdd(total, execLatency, total);
    }
    return ok;
}

Cycle
retuneRelayoutCycles(unsigned m, unsigned pOld, unsigned pNew,
                     std::uint64_t footprint, Cycle serviceCycles)
{
    if (pOld == pNew || footprint == 0)
        return 0;
    const double fraction =
        DynamicFieldMapping::displacedBy(m, pOld, pNew, footprint);
    // Displaced words are read and rewritten through 2^m modules of
    // serviceCycles-cycle access time: ceil(2 * T * D / M).
    const auto displaced = static_cast<std::uint64_t>(
        fraction * static_cast<double>(footprint) + 0.5);
    const std::uint64_t modules = std::uint64_t{1} << m;
    return (2 * serviceCycles * displaced + modules - 1) / modules;
}

const VectorAccessUnit &
WorkloadUnits::retuned(const VectorUnitConfig &cfg,
                       std::size_t mappingIndex, unsigned tune)
{
    const UnitKey key{mappingIndex, tune, cfg.engine};
    for (auto &entry : units_) {
        if (entry.first == key)
            return *entry.second;
    }
    VectorUnitConfig variant = cfg;
    variant.dynamicTune = tune;
    units_.emplace_back(key,
                        std::make_unique<VectorAccessUnit>(variant));
    return *units_.back().second;
}

Cycle
WorkloadUnits::relayoutCycles(unsigned m, unsigned pOld,
                              unsigned pNew, std::uint64_t footprint,
                              Cycle serviceCycles)
{
    const CostKey key{m, pOld, pNew, footprint, serviceCycles};
    for (const auto &entry : costs_) {
        if (entry.first == key)
            return entry.second;
    }
    const Cycle cycles =
        retuneRelayoutCycles(m, pOld, pNew, footprint, serviceCycles);
    costs_.emplace_back(key, cycles);
    return cycles;
}

} // namespace cfva::sim
