#include "sim/scenario.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/bits.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/stride.h"

namespace cfva::sim {

std::string
PortMix::label() const
{
    if (multipliers.empty())
        return "1";
    // '|'-joined so the label embeds cleanly in unquoted CSV cells.
    std::ostringstream os;
    for (std::size_t i = 0; i < multipliers.size(); ++i)
        os << (i ? "|" : "") << multipliers[i];
    return os.str();
}

void
PortMix::validate() const
{
    for (std::int64_t m : multipliers) {
        cfva_assert(m != 0, "port-mix multiplier 0 is not a vector "
                    "access");
        const std::int64_t mag = m < 0 ? -m : m;
        cfva_assert(mag <= kMaxMultiplier,
                    "port-mix multiplier out of range: ", m);
    }
}

void
ScenarioGrid::addFamilies(unsigned xLo, unsigned xHi,
                          const std::vector<std::uint64_t> &sigmas)
{
    cfva_assert(xLo <= xHi, "empty family range: ", xLo, "..", xHi);
    for (unsigned x = xLo; x <= xHi; ++x) {
        for (std::uint64_t sigma : sigmas) {
            cfva_assert(sigma % 2 == 1,
                        "family multiplier must be odd: ", sigma);
            cfva_assert(x < 63 && sigma <= (~std::uint64_t{0} >> x),
                        "stride ", sigma, " * 2^", x,
                        " overflows the stride range");
            strides.push_back(Stride::fromFamily(sigma, x).value());
        }
    }
}

std::size_t
ScenarioGrid::jobCount() const
{
    std::uint64_t jobs = 1;
    for (std::uint64_t axis :
         {std::uint64_t{mappings.size()}, std::uint64_t{strides.size()},
          std::uint64_t{lengths.size()},
          std::uint64_t{starts.size()} + randomStarts,
          std::uint64_t{ports.size()}, std::uint64_t{portMixes.size()},
          std::uint64_t{workloads.size()}}) {
        if (!checkedMul(jobs, axis, jobs))
            return std::numeric_limits<std::size_t>::max();
    }
    return jobs;
}

std::string
ScenarioGrid::jobsOverBudget() const
{
    const std::size_t jobs = jobCount();
    if (jobs <= kJobBudget)
        return {};
    std::ostringstream os;
    os << "grid of " << jobs << " jobs exceeds the job budget of "
       << kJobBudget << " jobs";
    return os.str();
}

std::string
ScenarioGrid::cycleOverflow() const
{
    for (const auto &cfg : mappings) {
        for (std::uint64_t len : lengths) {
            const std::uint64_t resolved =
                len ? len : cfg.registerLength();
            for (unsigned p : ports) {
                for (const auto &wl : workloads) {
                    if (wl.cyclesFit(resolved, p,
                                     cfg.serviceCycles()))
                        continue;
                    std::ostringstream os;
                    os << "workload " << wl.label() << " at length "
                       << resolved << " on " << p << " port(s) of "
                       << cfg.describe()
                       << " overflows the 64-bit cycle count";
                    return os.str();
                }
            }
        }
    }
    return {};
}

std::string
ScenarioGrid::addressOverflow() const
{
    constexpr std::uint64_t kMaxAddr = ~std::uint64_t{0};
    std::uint64_t maxLength = 0;
    for (const auto &cfg : mappings)
        for (std::uint64_t len : lengths)
            maxLength = std::max(maxLength,
                                 len ? len : cfg.registerLength());
    // The highest (start + off) mod 2^64 over the grid's starts, in
    // the engine's modular arithmetic; a random range that wraps
    // reaches 2^64 - 1.
    const auto highest = [&](std::uint64_t off) {
        std::uint64_t top = 0;
        for (Addr a1 : starts)
            top = std::max(top, a1 + off);
        std::uint64_t last = 0;
        if (randomStarts && randomStartBound)
            top = std::max(top,
                           checkedAdd(off, randomStartBound - 1, last)
                               ? last
                               : kMaxAddr);
        return top;
    };

    // The grid is a full cross product, so the longest access on
    // the most ports is a job of every (workload, stride, mix,
    // start) point: checking it checks every job.
    std::uint64_t maxBase = 0;
    for (std::uint64_t base : strides)
        maxBase = std::max(maxBase, base);
    unsigned maxPorts = 0;
    for (unsigned P : ports)
        maxPorts = std::max(maxPorts, P);
    for (const auto &wl : workloads) {
        const std::uint64_t phase =
            wl.kind == WorkloadKind::Retune ? 2 : 1;
        const std::uint64_t taps =
            wl.kind == WorkloadKind::Stencil ? 2 : 0;
        for (const auto &mix : portMixes) {
            const std::size_t n =
                std::max<std::size_t>(mix.multipliers.size(), 1);
            for (std::size_t j = 0; j < n && j < maxPorts; ++j) {
                const std::int64_t mult =
                    mix.multiplierFor(static_cast<unsigned>(j));
                // Negated in unsigned arithmetic: -INT64_MIN is
                // undefined.
                const std::uint64_t bits =
                    static_cast<std::uint64_t>(mult);
                const std::uint64_t mag =
                    mult < 0 ? std::uint64_t{0} - bits : bits;
                // The stride grows with the base, so the largest
                // base decides whether every port stride fits.
                std::uint64_t widest = 0;
                if (!checkedMul(maxBase, mag, widest)
                    || !checkedMul(widest, phase, widest)
                    || widest > (kMaxAddr >> 1)) {
                    std::ostringstream os;
                    os << "port stride " << maxBase << " x " << mult
                       << (phase > 1 ? " x 2 (retune phase)" : "")
                       << " overflows the signed 64-bit stride range";
                    return os.str();
                }
                if (mult >= 0)
                    continue;
                // A descending port starts at the top of its block,
                // a1 + p x stagger (+ a stencil tap) + (L - 1) x |S|:
                // that sum must not wrap.  Ports p = j (mod n) share
                // multiplier j.
                for (std::uint64_t base : strides) {
                    const std::uint64_t stride = base * mag * phase;
                    std::uint64_t span = 0;
                    bool wraps = !checkedMul(
                        maxLength ? maxLength - 1 : 0, stride, span);
                    for (std::uint64_t p = j; p < maxPorts && !wraps;
                         p += n) {
                        for (std::uint64_t tap = 0; tap <= taps && !wraps;
                             ++tap) {
                            wraps = highest(p * portStagger + tap * base)
                                    > kMaxAddr - span;
                        }
                    }
                    if (wraps) {
                        std::ostringstream os;
                        os << "descending port stride -" << stride
                           << " of mix " << mix.label() << " at length "
                           << maxLength << " (workload " << wl.label()
                           << ") wraps past the 64-bit address space "
                              "from its start";
                        return os.str();
                    }
                }
            }
        }
    }
    return {};
}

std::string
ScenarioGrid::lengthOverBudget() const
{
    for (const auto &cfg : mappings) {
        for (std::uint64_t len : lengths) {
            const std::uint64_t resolved =
                len ? len : cfg.registerLength();
            for (unsigned p : ports) {
                // Division instead of resolved * p: no wraparound.
                if (p == 0 || resolved <= kLengthBudget / p)
                    continue;
                std::ostringstream os;
                os << "access of length " << resolved << " on " << p
                   << " port(s) of " << cfg.describe()
                   << " exceeds the length budget of "
                   << kLengthBudget << " elements";
                return os.str();
            }
        }
    }
    return {};
}

std::vector<Scenario>
ScenarioGrid::expand() const
{
    for (const auto &cfg : mappings)
        cfg.validate();
    for (std::uint64_t s : strides)
        cfva_assert(s != 0, "stride 0 is not a vector access");
    for (unsigned p : ports)
        cfva_assert(p >= 1, "port count must be positive");
    cfva_assert(!portMixes.empty(),
                "the port-mix axis needs at least one mix (the "
                "default-constructed PortMix clones the stride)");
    for (const auto &mix : portMixes)
        mix.validate();
    cfva_assert(!workloads.empty(),
                "the workload axis needs at least one workload (the "
                "default-constructed Workload is a single access)");
    for (const auto &wl : workloads) {
        wl.validate();
        if (wl.kind == WorkloadKind::Retune
            || wl.kind == WorkloadKind::Stencil) {
            // Both derive shifted/doubled strides from the base.
            for (std::uint64_t s : strides) {
                cfva_assert(s <= (~std::uint64_t{0} >> 2),
                            "stride ", s, " overflows the ",
                            to_string(wl.kind), " workload's "
                            "derived strides");
            }
        }
    }

    const std::string tooManyJobs = jobsOverBudget();
    cfva_assert(tooManyJobs.empty(), tooManyJobs);
    const std::string overBudget = lengthOverBudget();
    cfva_assert(overBudget.empty(), overBudget);
    const std::string overflow = cycleOverflow();
    cfva_assert(overflow.empty(), overflow);
    const std::string wraps = addressOverflow();
    cfva_assert(wraps.empty(), wraps);

    std::vector<Scenario> jobs;
    jobs.reserve(jobCount());

    // One sequential pass; the Rng is consumed in expansion order,
    // so the same (grid, seed) always yields the same job list.
    Rng rng(seed);
    for (std::size_t mi = 0; mi < mappings.size(); ++mi) {
        for (std::uint64_t stride : strides) {
            for (std::uint64_t len : lengths) {
                const std::uint64_t resolved =
                    len ? len : mappings[mi].registerLength();
                for (std::size_t wi = 0; wi < workloads.size();
                     ++wi) {
                    for (unsigned p : ports) {
                        for (std::size_t xi = 0;
                             xi < portMixes.size(); ++xi) {
                            for (Addr a1 : starts) {
                                jobs.push_back({jobs.size(), mi, xi,
                                                wi, stride, resolved,
                                                a1, p});
                            }
                            for (unsigned r = 0; r < randomStarts;
                                 ++r) {
                                jobs.push_back(
                                    {jobs.size(), mi, xi, wi, stride,
                                     resolved,
                                     rng.below(randomStartBound),
                                     p});
                            }
                        }
                    }
                }
            }
        }
    }
    return jobs;
}

} // namespace cfva::sim
