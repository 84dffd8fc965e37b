#include "core/access_unit.h"

#include <sstream>

#include "common/bits.h"
#include "common/logging.h"
#include "mapping/dynamic.h"
#include "mapping/gf2_linear.h"
#include "mapping/prand.h"
#include "mapping/xor_matched.h"
#include "mapping/xor_sectioned.h"
#include "memsys/backend.h"
#include "memsys/backend_cache.h"
#include "memsys/multi_port.h"
#include "theory/theory_backend.h"

namespace cfva {

namespace {

/**
 * |@p stride| of a signed access, after the guard both signed entry
 * points run first: the stride is nonzero, and a descending walk of
 * @p length elements from @p a1 stays at or above address 0.
 */
std::uint64_t
signedMagnitude(Addr a1, std::int64_t stride, std::uint64_t length)
{
    cfva_assert(stride != 0, "stride must be nonzero");
    // Negated in unsigned arithmetic: -INT64_MIN is undefined.
    const std::uint64_t bits = static_cast<std::uint64_t>(stride);
    if (stride > 0)
        return bits;
    const std::uint64_t mag = std::uint64_t{0} - bits;
    std::uint64_t span = 0;
    cfva_assert(length == 0
                    || (checkedMul(length - 1, mag, span) && a1 >= span),
                "negative-stride access underflows address 0: a1=",
                a1, ", |S|=", mag, ", V=", length);
    return mag;
}

} // namespace

const char *
to_string(AccessPolicy policy)
{
    switch (policy) {
      case AccessPolicy::InOrder:
        return "in-order";
      case AccessPolicy::ConflictFree:
        return "conflict-free";
      case AccessPolicy::SplitShort:
        return "split-short";
      case AccessPolicy::ChunkedByL:
        return "chunked-by-L";
    }
    return "?";
}

VectorAccessUnit::VectorAccessUnit(const VectorUnitConfig &cfg)
    : cfg_(cfg)
{
    cfg_.validate();

    const unsigned t = cfg_.t;
    const unsigned lambda = cfg_.lambda;

    switch (cfg_.kind) {
      case MemoryKind::Matched: {
        const unsigned s = cfg_.s();
        auto map = std::make_unique<XorMatchedMapping>(t, s);
        matched_ = map.get();
        mapping_ = std::move(map);
        window_ = theory::matchedWindow(s, t, lambda);
        break;
      }
      case MemoryKind::SimpleUnmatched: {
        const unsigned s = cfg_.s();
        const unsigned m = cfg_.m();
        cfva_assert(s >= m,
                    "Eq. 1 with t replaced by m needs s >= m (s=",
                    s, ", m=", m, ")");
        auto map = std::make_unique<XorMatchedMapping>(m, s);
        matched_ = map.get();
        mapping_ = std::move(map);
        window_ = theory::simpleUnmatchedWindow(s, m, t, lambda);
        break;
      }
      case MemoryKind::Sectioned: {
        const unsigned s = cfg_.s();
        const unsigned y = cfg_.y();
        auto map = std::make_unique<XorSectionedMapping>(t, s, y);
        sectioned_ = map.get();
        mapping_ = std::move(map);
        const auto wins = theory::sectionedWindows(s, y, t, lambda);
        if (wins.fused()) {
            window_ = wins.fusedWindow();
        } else {
            cfva_warn("sectioned windows [", wins.low.lo, ",",
                      wins.low.hi, "] and [", wins.high.lo, ",",
                      wins.high.hi, "] do not fuse; window() reports "
                      "the hull but the gap is not conflict free");
            window_ = {wins.low.lo, wins.high.hi};
        }
        break;
      }
      case MemoryKind::DynamicTuned: {
        // Prior art [11]: in-order access is conflict free exactly
        // for the tuned family p; there is no out-of-order window.
        const unsigned p = cfg_.dynamicTune;
        mapping_ = std::make_unique<DynamicFieldMapping>(cfg_.m(), p);
        window_ = {static_cast<int>(p), static_cast<int>(p)};
        break;
      }
      case MemoryKind::PseudoRandom: {
        // Prior art [12]: no family is guaranteed minimum latency;
        // the window is empty and every access issues in order.
        // 48 address bits comfortably cover every sweep grid.
        mapping_ = std::make_unique<GF2LinearMapping>(
            makePseudoRandomMapping(cfg_.m(), 48, cfg_.prandSeed));
        window_ = {};
        break;
      }
    }
}

bool
VectorAccessUnit::inWindow(const Stride &s) const
{
    const unsigned x = s.family();
    if (cfg_.kind == MemoryKind::Sectioned) {
        const auto wins = theory::sectionedWindows(cfg_.s(), cfg_.y(),
                                                   cfg_.t, cfg_.lambda);
        return wins.low.contains(x) || wins.high.contains(x);
    }
    return window_.contains(x);
}

std::optional<unsigned>
VectorAccessUnit::windowW(unsigned x) const
{
    switch (cfg_.kind) {
      case MemoryKind::Matched:
      case MemoryKind::SimpleUnmatched:
        if (x <= cfg_.s())
            return cfg_.s();
        return std::nullopt;
      case MemoryKind::Sectioned:
        if (x <= cfg_.s())
            return cfg_.s();
        if (x <= cfg_.y())
            return cfg_.y();
        return std::nullopt;
      case MemoryKind::DynamicTuned:
      case MemoryKind::PseudoRandom:
        // No subsequence theorems apply to the prior-art mappings.
        return std::nullopt;
    }
    return std::nullopt;
}

bool
VectorAccessUnit::inOrderConflictFree(unsigned x) const
{
    switch (cfg_.kind) {
      case MemoryKind::Matched:
        // Eq. 1 in order: exactly the x = s family ([6]).
        return x == cfg_.s();
      case MemoryKind::SimpleUnmatched:
        // Eq. 1 with t -> m in order: s <= x <= s+m-t ([6]).
        return x >= cfg_.s()
               && x <= cfg_.s() + cfg_.m() - cfg_.t;
      case MemoryKind::Sectioned:
        // x = s: consecutive elements step the Eq. 1 core field by
        // sigma, so any T consecutive requests differ in the low t
        // module bits.  x = y: ditto for the section field.  These
        // are the paper's two any-length families (Sec. 5H).
        return x == cfg_.s() || x == cfg_.y();
      case MemoryKind::DynamicTuned:
        // The tuned family steps the module field by the odd sigma,
        // cycling all 2^m >= T modules: conflict free in order for
        // any length and start ([11]).
        return x == cfg_.dynamicTune;
      case MemoryKind::PseudoRandom:
        // By design nothing is guaranteed ([12]).
        return false;
    }
    return false;
}

std::function<ModuleId(Addr)>
VectorAccessUnit::reorderKey(unsigned x) const
{
    const Cycle t_mask = (Cycle{1} << cfg_.t) - 1;
    switch (cfg_.kind) {
      case MemoryKind::Matched:
        // Key = the module number itself.
        return [map = matched_](Addr a) { return map->moduleOf(a); };
      case MemoryKind::SimpleUnmatched:
        // Key = low t bits of the module number: Lemma 2 guarantees
        // these cycle through all 2^t values in a subsequence, and
        // differing low bits imply differing modules.
        return [map = matched_, t_mask](Addr a) {
            return static_cast<ModuleId>(map->moduleOf(a) & t_mask);
        };
      case MemoryKind::Sectioned:
        if (x <= cfg_.s()) {
            // Supermodule order (Sec. 4.2 case i).
            return [map = sectioned_](Addr a) {
                return map->supermoduleOf(a);
            };
        }
        // Section order (Sec. 4.2 case ii).
        return [map = sectioned_](Addr a) {
            return map->sectionOf(a);
        };
      case MemoryKind::DynamicTuned:
      case MemoryKind::PseudoRandom:
        // windowW() is nullopt for these kinds, so the planner
        // never asks them for a reorder key.
        break;
    }
    cfva_panic("unreachable memory kind");
}

bool
VectorAccessUnit::certifies(const Stride &s, std::uint64_t length) const
{
    const unsigned x = s.family();
    if (inOrderConflictFree(x))
        return true;
    // A k*L access (k > 1) is planned register by register
    // (Sec. 5C case ii) and Theorems 1 / 3 do not cover the seams
    // between registers; any other length is one Fig. 4 ordering,
    // conflict free iff the ordering covers the whole access.
    const std::uint64_t reg_len = cfg_.registerLength();
    const bool chunked = length > reg_len && length % reg_len == 0;
    const auto w = windowW(x);
    return !chunked && w && subsequencePlanExists(cfg_.t, *w, s, length);
}

AccessPlan
VectorAccessUnit::plan(Addr a1, const Stride &s,
                       std::uint64_t length,
                       std::vector<Request> seed,
                       bool explain) const
{
    cfva_assert(length > 0, "empty access");
    AccessPlan p;
    p.a1 = a1;
    p.stride = s;
    p.length = length;
    p.expectConflictFree = certifies(s, length);
    const std::uint64_t reg_len = cfg_.registerLength();
    const unsigned x = s.family();
    const bool in_order = inOrderConflictFree(x);
    const auto w = windowW(x);

    if (length > reg_len && length % reg_len == 0) {
        // Sec. 5C case ii: multiple-size registers; apply the
        // register-length scheme to each portion.  Each chunk is
        // individually conflict free; the seams may cost up to T-1
        // cycles each, which the simulator measures honestly.
        p.policy = AccessPolicy::ChunkedByL;
        p.stream = std::move(seed);
        p.stream.clear();
        p.stream.reserve(length);
        const std::uint64_t chunks = length / reg_len;
        for (std::uint64_t c = 0; c < chunks; ++c) {
            const Addr chunk_a1 = a1 + s.value() * (c * reg_len);
            AccessPlan sub = plan(chunk_a1, s, reg_len, {}, false);
            for (auto &req : sub.stream)
                req.element += c * reg_len;
            p.stream.insert(p.stream.end(), sub.stream.begin(),
                            sub.stream.end());
        }
        if (explain) {
            std::ostringstream why;
            why << "V = " << chunks << " * L: per-portion scheme "
                << "(Sec. 5C case ii)";
            p.rationale = why.str();
        }
    } else if (in_order || !w) {
        p.policy = AccessPolicy::InOrder;
        p.stream = canonicalOrder(a1, s, length, std::move(seed));
        if (explain) {
            std::ostringstream why;
            why << "family x=" << x;
            if (in_order)
                why << " is conflict free in order on "
                    << mapping_->name();
            else
                why << " outside every window; canonical order";
            p.rationale = why.str();
        }
    } else {
        // Sec. 3.2 / 4.2 out-of-order issue of the longest head that
        // is a whole number of periods 2^{w+t-x}; a short vector's
        // remainder issues in order (Sec. 5C case i).  A full
        // register is either all head or, past every period, all
        // in order.
        const auto split = planShortVector(cfg_.t, *w, s, length);
        p.policy = length != reg_len      ? AccessPolicy::SplitShort
                   : split.ordered == 0 ? AccessPolicy::ConflictFree
                                        : AccessPolicy::InOrder;
        p.stream = shortVectorOrder(a1, s, split, reorderKey(x),
                                    std::move(seed));
        if (explain) {
            std::ostringstream why;
            why << "family x=" << x << " in window via w=" << *w
                << ": Sec. " << (cfg_.kind == MemoryKind::Sectioned
                                 ? "4.2" : "3.2")
                << " out-of-order issue";
            if (split.ordered > 0)
                why << " of " << split.reordered << " elements + "
                    << split.ordered << " in order (Sec. 5C)";
            p.rationale = why.str();
        }
    }
    return p;
}

AccessPlan
VectorAccessUnit::plan(Addr a1, std::int64_t stride,
                       std::uint64_t length,
                       std::vector<Request> seed,
                       bool explain) const
{
    const std::uint64_t mag = signedMagnitude(a1, stride, length);
    if (stride > 0)
        return plan(a1, Stride(mag), length, std::move(seed), explain);

    // Walk the same addresses from the low end and mirror the
    // element numbering: element i of the descending vector is
    // element length-1-i of the ascending one.
    const Addr low_a1 = a1 - (length - 1) * mag;
    AccessPlan p = plan(low_a1, Stride(mag), length,
                        std::move(seed), explain);
    for (auto &req : p.stream)
        req.element = length - 1 - req.element;
    p.a1 = a1;
    if (explain)
        p.rationale += " (descending: mirrored from ascending twin)";
    return p;
}

template <typename F>
auto
VectorAccessUnit::withTheory(BackendCache *cache, TierCounters *tiers,
                             F &&f) const
{
    const auto answer = [&](TheoryBackend &tb) {
        auto r = f(tb);
        if (tiers) {
            tiers->add(tb.lastClaimed());
            tiers->lastReason = tb.lastReason();
        }
        return r;
    };
    if (cache) {
        return answer(cache->theoryBackendFor(
            EngineKind::PerCycle, cfg_.memConfig(), *mapping_));
    }
    TheoryBackend tb(cfg_.memConfig(), *mapping_);
    return answer(tb);
}

AccessResult
VectorAccessUnit::execute(const AccessPlan &plan,
                          DeliveryArena *arena, BackendCache *cache,
                          TierPolicy tier, TierCounters *tiers,
                          ResultDetail detail) const
{
    cfva_assert(tier != TierPolicy::AuditBoth,
                "AuditBoth is resolved by the caller running both "
                "tiers; execute() takes a single tier");
    if (tier == TierPolicy::TheoryFirst) {
        // Certified plans are claimed on the planner's window
        // theorems (O(1) under summary detail); everything else goes
        // straight to the steady-state solver — the per-element
        // proof would only re-derive what the windows already said.
        return withTheory(cache, tiers, [&](TheoryBackend &tb) {
            return plan.expectConflictFree
                       ? tb.runSingleCertified(plan.stream, arena,
                                               detail)
                       : tb.runSingleHinted(false, plan.stream, arena,
                                            detail);
        });
    }
    if (tiers)
        tiers->add(false);
    if (cache) {
        return cache->backendFor(cfg_.memConfig(), *mapping_)
            .runSingle(plan.stream, arena);
    }
    return simulateAccess(cfg_.memConfig(), *mapping_, plan.stream,
                          arena);
}

MultiPortResult
VectorAccessUnit::executePorts(
    const std::vector<std::vector<Request>> &streams,
    DeliveryArena *arena, BackendCache *cache, TierPolicy tier,
    TierCounters *tiers, ResultDetail detail) const
{
    cfva_assert(tier != TierPolicy::AuditBoth,
                "AuditBoth is resolved by the caller running both "
                "tiers; executePorts() takes a single tier");
    if (tier == TierPolicy::TheoryFirst) {
        return withTheory(cache, tiers, [&](TheoryBackend &tb) {
            return tb.runPorts(streams, arena, detail);
        });
    }
    if (tiers)
        tiers->add(false);
    if (cache) {
        return cache->backendFor(cfg_.memConfig(), *mapping_)
            .run(streams, arena);
    }
    return PerCycleMultiPort(cfg_.memConfig(), *mapping_)
        .run(streams, arena);
}

template <typename S>
AccessResult
VectorAccessUnit::accessAs(Addr a1, S stride, const Stride &mag,
                           std::uint64_t length, DeliveryArena *arena,
                           BackendCache *cache, TierPolicy tier,
                           TierCounters *tiers,
                           ResultDetail detail) const
{
    cfva_assert(length > 0, "empty access");
    // The claim execute() would make from the plan's certification
    // reads nothing of the stream but its length.
    if (tier == TierPolicy::TheoryFirst && detail != ResultDetail::Full
        && certifies(mag, length)) {
        return withTheory(cache, tiers, [length](TheoryBackend &tb) {
            return tb.claimCertified(length);
        });
    }
    AccessPlan p = plan(a1, stride, length,
                        arena ? arena->acquireRequests(length)
                              : std::vector<Request>{},
                        /*explain=*/false);
    AccessResult r = execute(p, arena, cache, tier, tiers, detail);
    if (arena)
        arena->releaseRequests(std::move(p.stream));
    return r;
}

AccessResult
VectorAccessUnit::access(Addr a1, const Stride &s, std::uint64_t length,
                         DeliveryArena *arena, BackendCache *cache,
                         TierPolicy tier, TierCounters *tiers,
                         ResultDetail detail) const
{
    return accessAs(a1, s, s, length, arena, cache, tier, tiers,
                    detail);
}

AccessResult
VectorAccessUnit::access(Addr a1, std::int64_t stride,
                         std::uint64_t length, DeliveryArena *arena,
                         BackendCache *cache, TierPolicy tier,
                         TierCounters *tiers, ResultDetail detail) const
{
    return accessAs(a1, stride,
                    Stride(signedMagnitude(a1, stride, length)), length,
                    arena, cache, tier, tiers, detail);
}

} // namespace cfva
