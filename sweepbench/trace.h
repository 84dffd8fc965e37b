/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one timed call into a library layer: a name, a start and
 * end on the steady clock, the span that caused it, and the job id as
 * its trace id.  Spans are kept in memory while the run executes and
 * written out only when it ends, so recording costs one vector append
 * and two clock reads per span.  A span's self time is its duration
 * minus the time its direct children cover.
 */

#ifndef CFVA_SWEEPBENCH_TRACE_H
#define CFVA_SWEEPBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace sweepbench {

/** Nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Per-name totals over a set of spans. */
struct SpanTotals
{
    double seconds = 0.0;     //!< summed durations
    double selfSeconds = 0.0; //!< durations minus child coverage
};

class Tracer
{
  public:
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    struct Span
    {
        std::uint32_t name = 0; //!< id from intern()
        std::uint32_t parent = kNone;
        std::uint64_t trace = 0;
        std::int64_t start = 0;
        std::int64_t end = 0;
    };

    /** Interns @p name; the id is stable for the tracer's lifetime. */
    std::uint32_t intern(const std::string &name);

    /** Opens a span as a child of the innermost open span. */
    void
    begin(std::uint32_t name, std::uint64_t trace)
    {
        const std::uint32_t parent =
            open_.empty() ? kNone : open_.back();
        open_.push_back(static_cast<std::uint32_t>(spans_.size()));
        spans_.push_back({name, parent, trace, nowNs(), 0});
    }

    /** Closes the innermost open span and returns its index. */
    std::uint32_t
    end()
    {
        const std::uint32_t idx = open_.back();
        open_.pop_back();
        spans_[idx].end = nowNs();
        return idx;
    }

    /** Renames a closed span (a span whose outcome decides its layer,
     *  such as an access the theory tier claims or rejects). */
    void
    rename(std::uint32_t idx, std::uint32_t name)
    {
        spans_[idx].name = name;
    }

    std::size_t size() const { return spans_.size(); }

    /** Totals of every span named @p name. */
    SpanTotals totals(const std::string &name) const;

    /** Durations in nanoseconds of every span named @p name. */
    std::vector<std::int64_t> durations(const std::string &name) const;

    /** Drops every recorded span (names stay interned). */
    void clear();

    /** Writes one tab-separated line per span:
     *  trace, span, parent, name, start_ns, end_ns.  Returns false
     *  when the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    /** Id of @p name, or kNone when it was never interned. */
    std::uint32_t find(const std::string &name) const;

    std::vector<std::string> names_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
};

/** RAII span over a scope. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::uint32_t name, std::uint64_t trace)
        : tracer_(tracer)
    {
        tracer_.begin(name, trace);
    }
    ~ScopedSpan() { tracer_.end(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
};

} // namespace sweepbench

#endif // CFVA_SWEEPBENCH_TRACE_H
