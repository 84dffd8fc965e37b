#include "theory/conflict_solver.h"

#include "memsys/backend.h"

namespace cfva {

bool
ConflictSolver::solve(PerCycleMultiPort &sim,
                      const std::vector<Request> &stream,
                      const ModuleId *mods, DeliveryArena *arena,
                      AccessResult &result, bool materialize)
{
    // Fills `result` from a position-form outcome at the requested
    // detail; the buffer is acquired only once a claim is certain.
    const auto answer = [&](const PortTrace &trace) {
        if (materialize)
            materializeEmits(trace, stream, mods, arena, result);
        else
            applyEmitSummary(trace.summary, result);
        return true;
    };

    // One memo lookup per attempt; oversize streams skip the memo
    // (lookup and store) but may still collapse.
    const bool memoTried = stream.size() <= OutcomeMemo::kMaxLen;
    if (memoTried) {
        if (memo_.lookup(stream.size(), mods,
                         sim.config().modules())) {
            ++stats_.memoHits;
            return answer(memo_.cachedTrace());
        }
        ++stats_.memoMisses;
    }

    // No cached proof: establish the transient on the simulator's
    // loop and extrapolate.  Failure (aperiodic sequence, too short
    // for a recurrence, or the snapshot budget ran out) leaves
    // `result` untouched.
    Cycle steppedCycles = 0;
    const bool collapsed =
        collapser_.tryRun(sim, stream.size(), mods, &steppedCycles);
    if (collapsed) {
        ++stats_.collapseHits;
        stats_.collapsePrefixCycles += steppedCycles;
        if (memoTried)
            memo_.store(sim.trace(0));
        answer(sim.trace(0));
    }
    sim.releaseTraces();
    return collapsed;
}

void
ConflictSolver::beginPortCheck(ModuleId moduleCount)
{
    if (owner_.size() < moduleCount) {
        owner_.resize(moduleCount, 0);
        ownerEpoch_.resize(moduleCount, 0);
    }
    ++epoch_;
}

bool
ConflictSolver::portDisjoint(std::size_t length,
                             const ModuleId *mods, unsigned port)
{
    for (std::size_t i = 0; i < length; ++i) {
        const ModuleId mod = mods[i];
        if (ownerEpoch_[mod] == epoch_) {
            if (owner_[mod] != port)
                return false;
            continue;
        }
        ownerEpoch_[mod] = epoch_;
        owner_[mod] = port;
    }
    return true;
}

} // namespace cfva
