// A bounded set of built objects kept resident, one of them active.
//
// The testing block keeps the built engine set of each design it has
// been programmed to, and the monitor the software pass bound to each;
// switching between resident designs then swaps an object in instead of
// building one.  `swap_in` is the one policy both use: least recently
// used eviction over a bound fixed at compile time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace otf::base {

/// \brief Make the entry `matches` selects the active one.
/// \param active the active entry; left alone when it matches
/// \param parked the inactive entries, most recently used first; at most
///        `Bound - 1` of them
/// \param matches predicate over an entry
/// \param build   makes the entry on a miss; `active` is parked only
///        after it returned, so a throwing build changes nothing
template <std::size_t Bound, typename T, typename Match, typename Build>
void swap_in(T& active, std::vector<T>& parked, Match matches, Build build)
{
    static_assert(Bound >= 2, "one active entry and at least one parked");
    if (matches(active)) {
        return;
    }
    const auto hit = std::find_if(parked.begin(), parked.end(), matches);
    if (hit != parked.end()) {
        std::swap(active, *hit);
        std::rotate(parked.begin(), hit, hit + 1);
        return;
    }
    T built = build();
    parked.insert(parked.begin(), std::move(active));
    if (parked.size() >= Bound) {
        parked.pop_back(); // the least recently used
    }
    active = std::move(built);
}

} // namespace otf::base
