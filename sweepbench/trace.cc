#include "trace.h"

#include <fstream>

namespace sweepbench {

std::uint32_t
Tracer::find(const std::string &name) const
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return static_cast<std::uint32_t>(i);
    return kNone;
}

std::uint32_t
Tracer::intern(const std::string &name)
{
    const std::uint32_t id = find(name);
    if (id != kNone)
        return id;
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanTotals
Tracer::totals(const std::string &name) const
{
    const std::uint32_t id = find(name);
    // Child coverage per span: children are closed before their
    // parent and never overlap one another (one thread records), so
    // summing their durations gives the covered time exactly.
    std::vector<std::int64_t> covered(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent != kNone)
            covered[s.parent] += s.end - s.start;
    SpanTotals t;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.name != id)
            continue;
        t.seconds += static_cast<double>(s.end - s.start) * 1e-9;
        t.selfSeconds +=
            static_cast<double>(s.end - s.start - covered[i]) * 1e-9;
    }
    return t;
}

std::vector<std::int64_t>
Tracer::durations(const std::string &name) const
{
    const std::uint32_t id = find(name);
    std::vector<std::int64_t> out;
    for (const Span &s : spans_)
        if (s.name == id)
            out.push_back(s.end - s.start);
    return out;
}

void
Tracer::clear()
{
    spans_.clear();
    open_.clear();
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    os << "trace\tspan\tparent\tname\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << s.trace << '\t' << i << '\t';
        if (s.parent == kNone)
            os << '-';
        else
            os << s.parent;
        os << '\t' << names_[s.name] << '\t' << s.start << '\t'
           << s.end << '\n';
    }
    os.flush();
    return static_cast<bool>(os);
}

} // namespace sweepbench
