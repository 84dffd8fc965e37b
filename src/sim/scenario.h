/**
 * @file
 * Declarative scenario grids for batch simulation.
 *
 * A ScenarioGrid is the cross product of mapping configurations
 * (kind, t, lambda, s/y/m overrides, buffering), stride sets, access
 * lengths, start addresses, workload programs (sim/workload.h),
 * port counts, and per-port traffic mixes (PortMix).  expand()
 * flattens the grid into a dense, deterministically ordered list of
 * independent simulation jobs that the SweepEngine fans out over a
 * thread pool.
 * Randomized start addresses are drawn during expansion from the
 * grid's seed, so the job list — and therefore the whole sweep — is
 * reproducible at any thread count.
 */

#ifndef CFVA_SIM_SCENARIO_H
#define CFVA_SIM_SCENARIO_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/bits.h"
#include "core/config.h"
#include "sim/workload.h"

namespace cfva::sim {

/**
 * How the P simultaneous streams of a multi-port scenario differ
 * from one another.  Port p accesses with stride
 * @c base_stride * multipliers[p % multipliers.size()] from its own
 * staggered base block; a negative multiplier walks the block
 * descending (the planner mirrors it from the ascending twin).  An
 * empty multiplier list means every port clones the base stride —
 * the historical behavior, and the default grid point.
 */
struct PortMix
{
    /** Largest accepted multiplier magnitude (validate() and the
     *  CLI share this one bound). */
    static constexpr std::int64_t kMaxMultiplier =
        std::int64_t{1} << 20;

    /** Per-port signed stride multipliers, cycled over the ports;
     *  empty = all ports use the base stride unchanged. */
    std::vector<std::int64_t> multipliers;

    /** The effective multiplier of port @p p. */
    std::int64_t
    multiplierFor(unsigned p) const
    {
        return multipliers.empty()
                   ? 1
                   : multipliers[p % multipliers.size()];
    }

    /** Report label, e.g. "1|3|-1"; "1" for the clone mix. */
    std::string label() const;

    /** Rejects zero multipliers and magnitudes above
     *  kMaxMultiplier. */
    void validate() const;

    bool operator==(const PortMix &o) const = default;
};

/** One fully expanded simulation job. */
struct Scenario
{
    std::size_t index = 0;        //!< dense job id (expansion order)
    std::size_t mappingIndex = 0; //!< into ScenarioGrid::mappings
    std::size_t portMixIndex = 0; //!< into ScenarioGrid::portMixes
    std::size_t workloadIndex = 0; //!< into ScenarioGrid::workloads
    std::uint64_t stride = 1;     //!< raw stride value S
    std::uint64_t length = 0;     //!< elements accessed
    Addr a1 = 0;                  //!< start address
    unsigned ports = 1;           //!< simultaneous vector streams

    bool operator==(const Scenario &o) const = default;
};

/**
 * The declarative cross product.  Axes left at their defaults
 * contribute a single point; an empty mandatory axis (mappings or
 * strides) expands to zero jobs.
 */
struct ScenarioGrid
{
    /** Mapping/memory configurations; validated before expansion. */
    std::vector<VectorUnitConfig> mappings;

    /** Raw stride values; use addFamilies() for (sigma, x) sets. */
    std::vector<std::uint64_t> strides;

    /**
     * Access lengths in elements.  The value 0 means "the full
     * register length of the mapping under test" and is resolved
     * per mapping during expansion.  Defaults to one full-register
     * access.
     */
    std::vector<std::uint64_t> lengths = {0};

    /**
     * Explicit start addresses.  Addressing is modular: element i
     * of an access lives at (start + i * stride) mod 2^64, so a
     * start near 2^64 wraps to the bottom of the address space
     * (start 2^64 - 1 with stride 1 touches 2^64 - 1, 0, 1, ...).
     * Every mapping is a function of the 64-bit address, so a
     * wrapped access is as well defined as any other, and the
     * analytic tier answers it exactly as the simulator does.
     */
    std::vector<Addr> starts = {0};

    /**
     * Extra randomized start addresses per (mapping, stride,
     * length, ports) combination, drawn deterministically from
     * @ref seed during expansion.
     */
    unsigned randomStarts = 0;

    /** Port counts; ports > 1 use the multi-port backends. */
    std::vector<unsigned> ports = {1};

    /**
     * Per-port traffic mixes, crossed with every other axis.  The
     * default single clone mix reproduces the historical grids
     * (every port issues the base stride).
     */
    std::vector<PortMix> portMixes = {PortMix{}};

    /**
     * Workload programs, crossed with every other axis.  The
     * default Single workload reproduces the historical one-access
     * scenarios bit for bit.
     */
    std::vector<Workload> workloads = {Workload{}};

    /** Seed for the randomized start addresses. */
    std::uint64_t seed = 0x5EEDF00Dull;

    /** Address distance between simultaneous port streams. */
    Addr portStagger = Addr{1} << 20;

    /** Randomized starts are drawn below this bound. */
    Addr randomStartBound = Addr{1} << 24;

    /**
     * Most elements one access may plan, summed over its ports
     * (resolved length x ports): 2^20, about 80 MB of Request and
     * Delivery records.  An unbounded --lengths value would
     * allocate gigabytes before the first cycle; expand() rejects a
     * grid with any combination beyond the budget.
     */
    static constexpr std::uint64_t kLengthBudget = std::uint64_t{1} << 20;

    /**
     * Most jobs one grid may expand to: 2^26, about 4 GB of
     * 64-byte Scenario records before a single job runs.  The axis
     * sizes multiply (e.g. --random-starts 4294967295 on the
     * default grid asks for ~1.1e12 jobs, ~70 TB); expand() rejects
     * a grid beyond the budget instead of reserving it.
     */
    static constexpr std::uint64_t kJobBudget = std::uint64_t{1} << 26;

    /**
     * Appends the strides {sigma * 2^x : x in [xLo, xHi], sigma in
     * @p sigmas} to the stride axis.  @p sigmas must be odd.
     */
    void addFamilies(unsigned xLo, unsigned xHi,
                     const std::vector<std::uint64_t> &sigmas);

    /** Number of jobs expand() will produce; the largest
     *  std::size_t when the product of the axis sizes overflows
     *  it. */
    std::size_t jobCount() const;

    /**
     * Describes the grid's job count when it exceeds kJobBudget, or
     * returns an empty string when it fits.  expand() rejects a grid
     * beyond the budget; callers that want to fail gracefully check
     * first.
     */
    std::string jobsOverBudget() const;

    /**
     * Describes the first (mapping, length, ports, workload)
     * combination whose cycle totals would overflow 64 bits
     * (Workload::cyclesFit) — e.g. an execute latency near 2^64 —
     * or returns an empty string when every combination fits.
     * expand() rejects a grid with such a combination; callers that
     * want to fail gracefully check first.
     */
    std::string cycleOverflow() const;

    /**
     * Describes the first port stride or descending port access that
     * would leave the 64-bit range, or returns an empty string when
     * every one fits.  A port's signed stride |base x multiplier| —
     * doubled in the retune workload's second phase — must fit in
     * int64.  A descending port is anchored at the top of its block:
     * its start plus port stagger and stencil tap shift (taken mod
     * 2^64, as every address is) plus (L - 1) x |stride| must stay
     * below 2^64 for every start (explicit starts, and any random
     * start below randomStartBound).  expand() rejects a grid that
     * fails this; callers that want to fail gracefully check first.
     */
    std::string addressOverflow() const;

    /**
     * Describes the first (mapping, length, ports) combination whose
     * access exceeds kLengthBudget, or returns an empty string when
     * every combination fits.  expand() rejects a grid with such a
     * combination; callers that want to fail gracefully check
     * first.
     */
    std::string lengthOverBudget() const;

    /**
     * Flattens the grid into jobs in deterministic order and
     * resolves randomized starts.  Calls validate() on every
     * mapping configuration and workload first, and rejects a grid
     * with more jobs than the job budget (jobsOverBudget()), whose
     * accesses exceed the length budget (lengthOverBudget()), whose
     * cycle totals could overflow (cycleOverflow()) or whose port
     * strides or descending addresses could (addressOverflow()).
     */
    std::vector<Scenario> expand() const;
};

} // namespace cfva::sim

#endif // CFVA_SIM_SCENARIO_H
