// A process-wide cache of values built once per key, read without a lock.
//
// Readers scan the published slots with acquire loads and stop at the
// first empty one.  A miss takes the mutex, looks again, builds the value
// and publishes it in the next free slot with a release store.  Entries
// live in a deque, which never moves an element, so a published reference
// stays valid for the process.  Once every slot is taken, a miss builds
// into the caller's `uncached` storage instead.  The spectral test's
// per-length plans and the longest-run class probabilities use it.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace otf::nist {

template <class Key, class Value, std::size_t Slots>
class published_cache {
public:
    template <class Build>
    const Value& get(const Key& key, std::optional<Value>& uncached,
                     Build&& build)
    {
        if (const Value* v = find(key)) {
            return *v;
        }
        const std::lock_guard lock(mutex_);
        if (const Value* v = find(key)) {
            return *v;
        }
        if (entries_.size() == Slots) {
            return uncached.emplace(build());
        }
        const entry& e = entries_.emplace_back(key, build());
        slots_[entries_.size() - 1].store(&e, std::memory_order_release);
        return e.second;
    }

private:
    using entry = std::pair<Key, Value>;

    const Value* find(const Key& key) const
    {
        for (const std::atomic<const entry*>& slot : slots_) {
            const entry* e = slot.load(std::memory_order_acquire);
            if (e == nullptr) {
                return nullptr;
            }
            if (e->first == key) {
                return &e->second;
            }
        }
        return nullptr;
    }

    std::array<std::atomic<const entry*>, Slots> slots_{};
    std::mutex mutex_;
    std::deque<entry> entries_;
};

} // namespace otf::nist
