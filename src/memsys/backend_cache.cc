#include "memsys/backend_cache.h"

#include <utility>

#include "theory/theory_backend.h"

namespace cfva {

MemoryBackend *
BackendCache::lookup(const Key &key)
{
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].key == key) {
            ++stats_.hits;
            if (i != 0)
                std::swap(entries_[0], entries_[i]);
            return entries_[0].backend.get();
        }
    }
    ++stats_.misses;
    return nullptr;
}

MemoryBackend &
BackendCache::backendFor(const MemConfig &cfg, const ModuleMapping &map)
{
    const Key key{cfg.m, cfg.t, cfg.inputBuffers, cfg.outputBuffers,
                  &map, false};
    if (MemoryBackend *hit = lookup(key))
        return *hit;
    entries_.insert(entries_.begin(),
                    Entry{key, makeMemoryBackend(cfg, map)});
    return *entries_.front().backend;
}

TheoryBackend &
BackendCache::theoryBackendFor(EngineKind, const MemConfig &cfg,
                               const ModuleMapping &map)
{
    const Key key{cfg.m, cfg.t, cfg.inputBuffers, cfg.outputBuffers,
                  &map, /*theory=*/true};
    if (MemoryBackend *hit = lookup(key))
        return static_cast<TheoryBackend &>(*hit);
    entries_.insert(entries_.begin(),
                    Entry{key, std::make_unique<TheoryBackend>(cfg, map)});
    return static_cast<TheoryBackend &>(*entries_.front().backend);
}

FastPathStats
BackendCache::fastPathStats() const
{
    FastPathStats total;
    for (const auto &e : entries_) {
        if (e.key.theory)
            total +=
                static_cast<const TheoryBackend &>(*e.backend)
                    .fastPathStats();
    }
    return total;
}

} // namespace cfva
