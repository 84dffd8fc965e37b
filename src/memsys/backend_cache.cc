#include "memsys/backend_cache.h"

#include <utility>

namespace cfva {

TheoryBackend &
BackendCache::theoryBackendFor(EngineKind, const MemConfig &cfg,
                               const ModuleMapping &map)
{
    const Key key{cfg.m, cfg.t, cfg.inputBuffers, cfg.outputBuffers,
                  &map};
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].key == key) {
            ++stats_.hits;
            if (i != 0)
                std::swap(entries_[0], entries_[i]);
            return *entries_[0].backend;
        }
    }
    ++stats_.misses;
    entries_.insert(entries_.begin(),
                    Entry{key, std::make_unique<TheoryBackend>(cfg, map)});
    return *entries_.front().backend;
}

FastPathStats
BackendCache::fastPathStats() const
{
    FastPathStats total;
    for (const auto &e : entries_)
        total += e.backend->fastPathStats();
    return total;
}

} // namespace cfva
