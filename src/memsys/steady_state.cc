#include "memsys/steady_state.h"

namespace cfva {

std::size_t
SteadyStateCollapser::smallestPeriod(std::size_t length,
                                     const ModuleId *mods)
{
    // KMP failure function; the smallest period of the sequence is
    // length minus its longest proper border.  "Period p" here means
    // mods[i] == mods[i - p] for every i >= p — exactly the property
    // the replica extrapolation relies on (p need not divide length).
    fail_.assign(length, 0);
    std::size_t k = 0;
    for (std::size_t i = 1; i < length; ++i) {
        while (k > 0 && mods[i] != mods[k])
            k = fail_[k - 1];
        if (mods[i] == mods[k])
            ++k;
        fail_[i] = k;
    }
    return length - fail_[length - 1];
}

bool
SteadyStateCollapser::tryRun(PerCycleMultiPort &sim,
                             std::size_t length, const ModuleId *mods,
                             Cycle *steppedOut)
{
    if (length == 0)
        return false;
    const std::size_t p = smallestPeriod(length, mods);
    // Aperiodic, period too long to snapshot cheaply, or too few
    // whole periods for two snapshot positions below length.
    if (p == length || p > kMaxPeriod || (length - 1) / p < 2)
        return false;

    length_ = length;
    period_ = p;
    nextSnapPos_ = p;
    jumped_ = false;
    skipped_ = 0;
    snapshots_.clear();
    if (!sim.simulate(PortSeq{mods, length}, *this))
        return false;
    // Every cycle from 0 to the last delivery was stepped except
    // the ones the jump extrapolated.
    *steppedOut = sim.trace(0).summary.lastDelivery + 1 - skipped_;
    return true;
}

bool
SteadyStateCollapser::atCycleTop(Cycle &now, detail::PortState &port,
                                 std::span<MemoryModule> modules)
{
    // Snapshot the relative state at the top of the first cycle
    // where the issue position reaches each multiple of the
    // module-sequence period.  A match against any earlier snapshot
    // proves the steady state: everything between the two
    // cycle-tops repeats verbatim, shifted by (Δcycle, Δposition)
    // per repetition, until the stream runs out.
    if (jumped_ || port.next != nextSnapPos_ || port.next >= length_)
        return true;

    sig_.clear();
    for (const MemoryModule &mod : modules)
        mod.encodeState(now, port.next, sig_);
    std::uint64_t h = 14695981039346656037ull; // FNV-1a basis
    for (std::int64_t v : sig_) {
        h ^= static_cast<std::uint64_t>(v);
        h *= 1099511628211ull;
    }
    for (const Snapshot &s : snapshots_) {
        if (s.hash == h && s.sig == sig_) {
            jump(s, now, port, modules);
            return true;
        }
    }

    if (snapshots_.size() >= kMaxSnapshots)
        return false;
    Snapshot s;
    s.hash = h;
    s.sig = sig_;
    s.now = now;
    s.next = port.next;
    s.emitCount = port.trace.emits.size();
    s.stalls = port.trace.summary.stallCycles;
    snapshots_.push_back(std::move(s));
    nextSnapPos_ += period_;
    // No recurrence before the stream ends: stepping on would just
    // duplicate the plain simulation's work.
    return nextSnapPos_ < length_;
}

void
SteadyStateCollapser::jump(const Snapshot &match, Cycle &now,
                           detail::PortState &port,
                           std::span<MemoryModule> modules)
{
    jumped_ = true;
    const Cycle dC = now - match.now;
    const std::size_t dPos = port.next - match.next;
    const std::size_t extra = (length_ - match.next) / dPos - 1;
    if (extra == 0)
        return; // the tail steps from here

    std::vector<Emit> &emits = port.trace.emits;
    const std::size_t idx1 = match.emitCount;
    const std::size_t idx2 = emits.size();
    for (std::size_t r = 1; r <= extra; ++r) {
        const Cycle tShift = r * dC;
        const auto pShift = static_cast<std::uint32_t>(r * dPos);
        for (std::size_t i = idx1; i < idx2; ++i) {
            Emit e = emits[i]; // by index: push_back may reallocate
            e.pos += pShift;
            e.issued += tShift;
            e.arrived += tShift;
            e.serviceStart += tShift;
            e.ready += tShift;
            e.delivered += tShift;
            emits.push_back(e);
        }
    }
    port.trace.summary.stallCycles +=
        extra * (port.trace.summary.stallCycles - match.stalls);

    // `now` becomes the top of the cycle the last replica ended on;
    // the loop steps the tail from there.
    skipped_ = extra * dC;
    for (MemoryModule &mod : modules)
        mod.shift(skipped_, static_cast<std::uint32_t>(extra * dPos));
    now += skipped_;
    port.next += extra * dPos;
}

const MemoOutcome *
OutcomeMemo::lookup(const PortSeq *ports, std::size_t count,
                    ModuleId moduleCount)
{
    found_ = ~std::size_t{0};
    keyed_ = false;
    std::size_t total = 0;
    for (std::size_t p = 0; p < count; ++p)
        total += ports[p].length;
    if (total == 0 || total > kMaxLen)
        return nullptr;
    keyed_ = true;

    // Rank-canonicalize jointly: the distinct modules used by any
    // port, sorted ascending, renamed 0..k-1.  An order-preserving
    // relabeling keeps every engine comparison (return-bus
    // tie-breaks compare module ids) intact, and one relabeling for
    // all ports keeps which ports share which module, so equal keys
    // have bit-identical position-form outcomes.  First-seen-order
    // naming would NOT be sound: it can map an ascending pair to a
    // descending one and flip a tie-break.
    rankOf_.assign(moduleCount, kUnranked);
    for (std::size_t p = 0; p < count; ++p)
        for (std::size_t i = 0; i < ports[p].length; ++i)
            rankOf_[ports[p].mods[i]] = 0;
    ModuleId rank = 0;
    for (ModuleId m = 0; m < moduleCount; ++m)
        if (rankOf_[m] != kUnranked)
            rankOf_[m] = rank++;
    // Each port's ranks follow its length, so the encoding parses
    // back into exactly one list of port sequences.
    key_.clear();
    key_.reserve(count + total);
    for (std::size_t p = 0; p < count; ++p) {
        key_.push_back(static_cast<ModuleId>(ports[p].length));
        for (std::size_t i = 0; i < ports[p].length; ++i)
            key_.push_back(rankOf_[ports[p].mods[i]]);
    }

    std::uint64_t h = 14695981039346656037ull;
    for (ModuleId r : key_) {
        h ^= r;
        h *= 1099511628211ull;
    }
    hash_ = h;

    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        if (e.hash == hash_ && e.key == key_) {
            found_ = i;
            return &e.outcome;
        }
    }
    return nullptr;
}

void
OutcomeMemo::store(MemoOutcome outcome)
{
    if (!keyed_)
        return;
    if (found_ != ~std::size_t{0}) {
        entries_[found_].outcome = std::move(outcome);
        return;
    }
    Entry e;
    e.hash = hash_;
    e.key = key_;
    e.outcome = std::move(outcome);
    entries_.push_back(std::move(e));
    if (entries_.size() > capacity_)
        entries_.pop_front();
}

} // namespace cfva
