#include "memsys/steady_state.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace cfva {

void
materializeEmits(const EmitSummary &summary,
                 const std::vector<Emit> &emits,
                 const std::vector<Request> &stream,
                 const ModuleId *mods, AccessResult &result,
                 unsigned port)
{
    for (const Emit &e : emits) {
        Delivery d;
        d.addr = stream[e.pos].addr;
        d.element = stream[e.pos].element;
        d.module = mods[e.pos];
        d.port = port;
        d.issued = e.issued;
        d.arrived = e.arrived;
        d.serviceStart = e.serviceStart;
        d.ready = e.ready;
        d.delivered = e.delivered;
        result.deliveries.push_back(d);
    }
    applyEmitSummary(summary, result);
}

void
applyEmitSummary(const EmitSummary &summary, AccessResult &result)
{
    result.firstIssue = summary.firstIssue;
    result.lastDelivery = summary.lastDelivery;
    result.stallCycles = summary.stallCycles;
    result.latency = summary.latency;
    result.conflictFree = summary.conflictFree;
}

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

std::uint64_t
SteadyStateCollapser::encodeState(Cycle now, std::size_t next)
{
    // Everything is serialized relative to the current cycle and
    // issue position, in module-id order and logical ring order, so
    // two cycle-tops with equal signatures evolve identically (all
    // engine decisions compare times to `now`, positions to `next`,
    // and modules by id).  Dead fields (serviceStart/ready of
    // entries still in the input ring) are deliberately excluded.
    sig_.clear();
    const auto relC = [now](Cycle c) {
        return static_cast<std::int64_t>(c)
               - static_cast<std::int64_t>(now);
    };
    const auto relP = [next](std::uint32_t pos) {
        return static_cast<std::int64_t>(pos)
               - static_cast<std::int64_t>(next);
    };
    for (const ModState &ms : state_) {
        sig_.push_back(ms.inCount);
        const std::size_t qIn = ms.in.size();
        for (unsigned i = 0; i < ms.inCount; ++i) {
            const Flight &f = ms.in[(ms.inHead + i) % qIn];
            sig_.push_back(relP(f.pos));
            sig_.push_back(relC(f.issued));
            sig_.push_back(relC(f.arrived));
        }
        sig_.push_back(ms.busy ? 1 : 0);
        if (ms.busy) {
            sig_.push_back(relP(ms.svc.pos));
            sig_.push_back(relC(ms.svc.issued));
            sig_.push_back(relC(ms.svc.arrived));
            sig_.push_back(relC(ms.svc.serviceStart));
            sig_.push_back(relC(ms.svc.ready));
        }
        sig_.push_back(ms.outCount);
        const std::size_t qOut = ms.out.size();
        for (unsigned i = 0; i < ms.outCount; ++i) {
            const Flight &f = ms.out[(ms.outHead + i) % qOut];
            sig_.push_back(relP(f.pos));
            sig_.push_back(relC(f.issued));
            sig_.push_back(relC(f.arrived));
            sig_.push_back(relC(f.serviceStart));
            sig_.push_back(relC(f.ready));
        }
    }
    std::uint64_t h = 14695981039346656037ull; // FNV-1a basis
    for (std::int64_t v : sig_) {
        h ^= static_cast<std::uint64_t>(v);
        h *= 1099511628211ull;
    }
    return h;
}

bool
SteadyStateCollapser::tryRun(const MemConfig &cfg, std::size_t length,
                             const ModuleId *mods, Cycle *steppedOut)
{
    if (length == 0)
        return false;
    const std::size_t p = smallestPeriod(length, mods);
    // Aperiodic, period too long to snapshot cheaply, or too few
    // whole periods for two snapshot positions below length.
    if (p == length || p > kMaxPeriod || (length - 1) / p < 2)
        return false;

    const ModuleId moduleCount = cfg.modules();
    const Cycle t_cycles = cfg.serviceCycles();
    state_.resize(moduleCount);
    for (ModState &ms : state_) {
        ms.in.resize(cfg.inputBuffers);
        ms.out.resize(cfg.outputBuffers);
        ms.inHead = ms.inCount = 0;
        ms.outHead = ms.outCount = 0;
        ms.busy = false;
    }
    snapshots_.clear();
    emits_.clear();
    emits_.reserve(length);
    summary_ = {};

    std::size_t next = 0;
    bool stalledAttempt = false;
    std::uint64_t stalls = 0;
    unsigned busy = 0, queued = 0, inOutput = 0;
    std::size_t nextSnapPos = p;
    bool jumped = false;
    Cycle stepped = 0;
    // Same wedge cap as the stepped simulator; jumps assign true
    // cycle numbers, so the bound stays meaningful after
    // extrapolation.
    const Cycle limit =
        (static_cast<Cycle>(length) + 4) * (t_cycles + 2) + 64;

    for (Cycle now = 0;; ++now) {
        cfva_assert(now <= limit, "collapse wedged at cycle ", now);

        // Snapshot the relative state at the top of the first cycle
        // where the issue position reaches each multiple of the
        // module-sequence period.  A match against any earlier
        // snapshot proves the steady state: everything between the
        // two cycle-tops repeats verbatim, shifted by (Δcycle,
        // Δposition) per repetition, until the stream runs out.
        if (!jumped && next == nextSnapPos && next < length) {
            const std::uint64_t h = encodeState(now, next);
            const Snapshot *match = nullptr;
            for (const Snapshot &s : snapshots_) {
                if (s.hash == h && s.sig == sig_) {
                    match = &s;
                    break;
                }
            }
            if (match) {
                const Cycle dC = now - match->now;
                const std::size_t dPos = next - match->next;
                const std::size_t reps = (length - match->next) / dPos;
                const std::size_t extra = reps - 1;
                if (extra > 0) {
                    const std::size_t idx1 = match->emitCount;
                    const std::size_t idx2 = emits_.size();
                    const std::uint64_t segStalls =
                        stalls - match->stalls;
                    for (std::size_t r = 1; r <= extra; ++r) {
                        const Cycle tShift = r * dC;
                        const std::uint64_t pShift = r * dPos;
                        for (std::size_t i = idx1; i < idx2; ++i) {
                            Emit e = emits_[i]; // by index: the
                                                // vector reallocates
                            e.pos += static_cast<std::uint32_t>(pShift);
                            e.issued += tShift;
                            e.arrived += tShift;
                            e.serviceStart += tShift;
                            e.ready += tShift;
                            e.delivered += tShift;
                            emits_.push_back(e);
                        }
                    }
                    stalls += extra * segStalls;
                    const Cycle tShift = extra * dC;
                    const std::uint32_t pShift =
                        static_cast<std::uint32_t>(extra * dPos);
                    for (ModState &ms : state_) {
                        const std::size_t qIn = ms.in.size();
                        for (unsigned i = 0; i < ms.inCount; ++i) {
                            Flight &f = ms.in[(ms.inHead + i) % qIn];
                            f.pos += pShift;
                            f.issued += tShift;
                            f.arrived += tShift;
                        }
                        if (ms.busy) {
                            ms.svc.pos += pShift;
                            ms.svc.issued += tShift;
                            ms.svc.arrived += tShift;
                            ms.svc.serviceStart += tShift;
                            ms.svc.ready += tShift;
                        }
                        const std::size_t qOut = ms.out.size();
                        for (unsigned i = 0; i < ms.outCount; ++i) {
                            Flight &f =
                                ms.out[(ms.outHead + i) % qOut];
                            f.pos += pShift;
                            f.issued += tShift;
                            f.arrived += tShift;
                            f.serviceStart += tShift;
                            f.ready += tShift;
                        }
                    }
                    now += tShift;
                    next += extra * dPos;
                }
                jumped = true;
                // Fall through: `now` is the top of the cycle the
                // last replica ended on; the tail steps from here.
            } else {
                if (snapshots_.size() >= kMaxSnapshots)
                    return false;
                Snapshot s;
                s.hash = h;
                s.sig = sig_;
                s.now = now;
                s.next = next;
                s.emitCount = emits_.size();
                s.stalls = stalls;
                snapshots_.push_back(std::move(s));
                nextSnapPos += p;
                if (nextSnapPos >= length)
                    return false; // no recurrence before the stream
                                  // ends; stepping on would just
                                  // duplicate the engine's work
            }
        }

        // The per-cycle model, step for step (multi_port.cc at P = 1).
        // 1. Retire finished services into output buffers.
        if (busy != 0) {
            for (ModState &ms : state_) {
                if (!ms.busy || ms.svc.ready > now)
                    continue;
                if (ms.outCount
                    >= static_cast<unsigned>(ms.out.size()))
                    continue; // blocked on a full output buffer
                ms.out[(ms.outHead + ms.outCount) % ms.out.size()] =
                    ms.svc;
                ++ms.outCount;
                ms.busy = false;
                --busy;
                ++inOutput;
            }
        }

        // 2. Return bus: oldest ready, lowest module id on ties.
        if (inOutput != 0) {
            ModState *best = nullptr;
            Cycle bestReady = std::numeric_limits<Cycle>::max();
            for (ModState &ms : state_) {
                if (ms.outCount == 0)
                    continue;
                const Flight &head = ms.out[ms.outHead];
                if (head.ready < bestReady) {
                    best = &ms;
                    bestReady = head.ready;
                }
            }
            if (best) {
                const Flight &head = best->out[best->outHead];
                Emit e;
                e.pos = head.pos;
                e.issued = head.issued;
                e.arrived = head.arrived;
                e.serviceStart = head.serviceStart;
                e.ready = head.ready;
                e.delivered = now;
                emits_.push_back(e);
                best->outHead = (best->outHead + 1)
                                % static_cast<unsigned>(
                                    best->out.size());
                --best->outCount;
                --inOutput;
            }
        }

        // 3. Start new services.
        if (queued != 0) {
            for (ModState &ms : state_) {
                if (ms.busy || ms.inCount == 0)
                    continue;
                Flight &head = ms.in[ms.inHead];
                if (head.arrived > now)
                    continue;
                ms.svc = head;
                ms.inHead = (ms.inHead + 1)
                            % static_cast<unsigned>(ms.in.size());
                --ms.inCount;
                ms.svc.serviceStart = now;
                ms.svc.ready = now + t_cycles;
                ms.busy = true;
                --queued;
                ++busy;
            }
        }

        // 4. Processor: attempt to issue one request.
        if (next < length) {
            const ModuleId target = mods[next];
            cfva_assert(target < moduleCount,
                        "mapping produced module ", target,
                        " outside ", moduleCount);
            ModState &ms = state_[target];
            if (ms.inCount < static_cast<unsigned>(ms.in.size())) {
                Flight f;
                f.pos = static_cast<std::uint32_t>(next);
                f.issued = now;
                f.arrived = now + 1;
                ms.in[(ms.inHead + ms.inCount) % ms.in.size()] = f;
                ++ms.inCount;
                ++queued;
                if (next == 0)
                    summary_.firstIssue = now;
                ++next;
                stalledAttempt = false;
            } else {
                ++stalls;
                stalledAttempt = true;
            }
        }

        ++stepped;
        if (next == length && !stalledAttempt
            && emits_.size() == length) {
            break;
        }
    }

    summary_.lastDelivery = emits_.back().delivered;
    summary_.stallCycles = stalls;
    summary_.latency =
        summary_.lastDelivery - summary_.firstIssue + 1;
    const Cycle minLatency =
        static_cast<Cycle>(length) + t_cycles + 1;
    summary_.conflictFree =
        stalls == 0 && summary_.latency == minLatency;
    *steppedOut = stepped;
    return true;
}

bool
OutcomeMemo::lookup(const PortSeq *ports, std::size_t count,
                    ModuleId moduleCount)
{
    found_ = ~std::size_t{0};
    keyed_ = false;
    std::size_t total = 0;
    for (std::size_t p = 0; p < count; ++p)
        total += ports[p].length;
    if (total == 0 || total > kMaxLen)
        return false;
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
            return true;
        }
    }
    return false;
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

void
OutcomeMemo::store(const std::vector<Emit> &emits,
                   const EmitSummary &summary)
{
    if (!keyed_)
        return;
    MemoOutcome o;
    o.ports.push_back({summary, emits});
    store(std::move(o));
}

const MemoOutcome &
OutcomeMemo::cached() const
{
    cfva_assert(found_ != ~std::size_t{0},
                "cached() without a lookup() hit");
    return entries_[found_].outcome;
}

} // namespace cfva
