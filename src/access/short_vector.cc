#include "access/short_vector.h"

#include "common/logging.h"

namespace cfva {

ShortVectorPlan
planShortVector(unsigned t, unsigned w, const Stride &s,
                std::uint64_t length)
{
    cfva_assert(length > 0, "vector length must be positive");

    ShortVectorPlan plan;
    plan.total = length;

    if (s.family() > w) {
        // Family outside the window: no T-matched head exists.
        plan.reordered = 0;
        plan.ordered = length;
        return plan;
    }

    const std::uint64_t period =
        std::uint64_t{1} << (w + t - s.family());
    plan.reordered = (length / period) * period;
    plan.ordered = length - plan.reordered;
    if (plan.reordered > 0)
        plan.head = makeSubsequencePlan(t, w, s, plan.reordered);
    return plan;
}

std::vector<Request>
shortVectorOrder(Addr a1, const Stride &s, const ShortVectorPlan &plan,
                 const std::function<ModuleId(Addr)> &key,
                 std::vector<Request> seed)
{
    std::vector<Request> stream = std::move(seed);
    stream.clear();
    if (plan.hasReorderedPart()) {
        stream = conflictFreeOrderByKey(a1, plan.head, key,
                                        std::move(stream));
    }
    stream.reserve(plan.total);
    Addr a = a1 + s.value() * plan.reordered;
    for (std::uint64_t i = plan.reordered; i < plan.total;
         ++i, a += s.value())
        stream.push_back({a, i});
    return stream;
}

std::vector<Request>
shortVectorOrder(Addr a1, const Stride &s, const ShortVectorPlan &plan,
                 const XorMatchedMapping &map)
{
    return shortVectorOrder(a1, s, plan,
                            [&](Addr a) { return map.moduleOf(a); });
}

} // namespace cfva
