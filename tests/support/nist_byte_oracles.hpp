// Per-bit oracles for the word loops of the bit-walking SP 800-22 tests
// (src/nist/word_loops.hpp and random_walk()).
//
// These are the loops the frequency, block frequency, runs, longest-run,
// serial, approximate-entropy and cusum tests ran when bit_sequence stored
// one byte per bit: one step per bit, read through operator[].
// test_nist_oracles compares each word loop with its form here.
#pragma once

#include "base/bits.hpp"
#include "nist/tests.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace otf::test {

/// sum of +/-1 over the sequence: 2 * ones - n.
inline std::int64_t frequency_sum_per_bit(const bit_sequence& seq)
{
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        sum += seq[i] ? 1 : -1;
    }
    return sum;
}

/// Ones among bits [first, first + length).
inline std::uint64_t block_ones_per_bit(const bit_sequence& seq,
                                        std::size_t first,
                                        std::size_t length)
{
    std::uint64_t ones = 0;
    for (std::size_t i = 0; i < length; ++i) {
        ones += seq[first + i] ? 1u : 0u;
    }
    return ones;
}

/// The runs count of a non-empty sequence: one plus the adjacent pairs
/// that differ.
inline std::uint64_t runs_per_bit(const bit_sequence& seq)
{
    std::uint64_t runs = 1;
    for (std::size_t i = 1; i < seq.size(); ++i) {
        if (seq[i] != seq[i - 1]) {
            ++runs;
        }
    }
    return runs;
}

/// Longest run of ones among bits [first, first + length).
inline unsigned longest_run_per_bit(const bit_sequence& seq,
                                    std::size_t first, std::size_t length)
{
    unsigned longest = 0;
    unsigned current = 0;
    for (std::size_t i = 0; i < length; ++i) {
        current = (current + 1) * static_cast<unsigned>(seq[first + i]);
        longest = std::max(longest, current);
    }
    return longest;
}

/// Cyclic m-bit pattern counts by an m-bit window slid once per start
/// (n >= m): its last bit runs from m-1 to n-1, then wraps onto bits
/// 0..m-2.
inline std::vector<std::uint64_t> cyclic_counts_per_bit(
    const bit_sequence& seq, unsigned m)
{
    std::vector<std::uint64_t> counts(std::size_t{1} << m, 0);
    const std::uint32_t mask = (1u << m) - 1u;
    std::uint32_t window = 0;
    for (unsigned j = 0; j + 1 < m; ++j) {
        window = ((window << 1) | (seq[j] ? 1u : 0u)) & mask;
    }
    const std::size_t n = seq.size();
    for (std::size_t last = m - 1; last < n; ++last) {
        window = ((window << 1) | (seq[last] ? 1u : 0u)) & mask;
        ++counts[window];
    }
    for (unsigned last = 0; last + 1 < m; ++last) {
        window = ((window << 1) | (seq[last] ? 1u : 0u)) & mask;
        ++counts[window];
    }
    return counts;
}

/// The +/-1 walk's extrema over S_0..S_n, final value and returns to zero
/// among S_1..S_n.
inline nist::walk_extent walk_per_bit(const bit_sequence& seq)
{
    nist::walk_extent walk;
    std::int64_t s = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        s += seq[i] ? 1 : -1;
        walk.max = std::max(walk.max, s);
        walk.min = std::min(walk.min, s);
        walk.zero_returns += s == 0 ? 1 : 0;
    }
    walk.final = s;
    return walk;
}

} // namespace otf::test
