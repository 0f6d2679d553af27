// The word loops behind the bit-walking SP 800-22 tests.
//
// bit_sequence stores its bits packed LSB-first in 64-bit words with a
// zero tail, so the frequency, block frequency, runs, longest-run, serial,
// approximate-entropy and cusum counts can read whole words: std::popcount
// and byte tables built by the compiler, local to this module.  The nist
// tests are the engines' independent oracle, so none of this uses the
// hw:: engines or the bits:: span kernels.  tests/support/nist_byte_oracles.hpp
// keeps the per-bit forms these loops replaced, and test_nist_oracles
// compares the two at every length 1..2112.
#pragma once

#include "base/bits.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace otf::nist {

/// The low `k` bits set (all 64 for k >= 64).
inline std::uint64_t low_bits(std::size_t k)
{
    return k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
}

/// 64 bits of `seq` from bit `first` < size() on, LSB-first; zero past
/// the end.
inline std::uint64_t bits_from(const bit_sequence& seq, std::size_t first)
{
    const std::vector<std::uint64_t>& words = seq.words();
    const std::size_t j = first / 64;
    const unsigned off = static_cast<unsigned>(first % 64);
    std::uint64_t x = words[j] >> off;
    if (off != 0 && j + 1 < words.size()) {
        x |= words[j + 1] << (64 - off);
    }
    return x;
}

/// Ones among bits [first, first + length).
inline std::uint64_t ones_in(const bit_sequence& seq, std::size_t first,
                             std::size_t length)
{
    std::uint64_t total = 0;
    for (std::size_t pos = 0; pos < length; pos += 64) {
        const std::uint64_t x =
            bits_from(seq, first + pos) & low_bits(length - pos);
        total += static_cast<std::uint64_t>(std::popcount(x));
    }
    return total;
}

/// Runs of ones in one byte, bit 0 (the first stream bit) to bit 7.
struct byte_runs {
    std::uint8_t lead;  ///< ones from bit 0 up
    std::uint8_t trail; ///< ones from bit 7 down
    std::uint8_t inner; ///< the longest run anywhere in the byte
};

constexpr std::array<byte_runs, 256> make_run_table()
{
    std::array<byte_runs, 256> table{};
    for (unsigned b = 0; b < 256; ++b) {
        unsigned lead = 0;
        while (lead < 8 && ((b >> lead) & 1u) != 0) {
            ++lead;
        }
        unsigned trail = 0;
        while (trail < 8 && ((b >> (7 - trail)) & 1u) != 0) {
            ++trail;
        }
        unsigned inner = 0;
        unsigned run = 0;
        for (unsigned i = 0; i < 8; ++i) {
            run = ((b >> i) & 1u) != 0 ? run + 1 : 0;
            inner = std::max(inner, run);
        }
        table[b] = {static_cast<std::uint8_t>(lead),
                    static_cast<std::uint8_t>(trail),
                    static_cast<std::uint8_t>(inner)};
    }
    return table;
}

inline constexpr std::array<byte_runs, 256> kByteRuns = make_run_table();

/// Longest run of ones among bits [first, first + length).
inline unsigned longest_ones_run(const bit_sequence& seq, std::size_t first,
                                 std::size_t length)
{
    if (length <= 8) {
        return kByteRuns[bits_from(seq, first) & low_bits(length)].inner;
    }
    // A run carries across bytes only through all-ones bytes; any other
    // byte ends it at its lead ones and starts the next at its trail.
    // Bits past `length` read as zeros and end the last run.
    unsigned best = 0;
    unsigned run = 0;
    for (std::size_t pos = 0; pos < length; pos += 64) {
        const std::uint64_t x =
            bits_from(seq, first + pos) & low_bits(length - pos);
        const std::size_t bits = std::min<std::size_t>(64, length - pos);
        for (unsigned b = 0; b < bits; b += 8) {
            const unsigned byte = static_cast<unsigned>((x >> b) & 0xffu);
            if (byte == 0xffu) {
                run += 8;
                continue;
            }
            const byte_runs& t = kByteRuns[byte];
            best = std::max({best, run + t.lead, unsigned{t.inner}});
            run = t.trail;
        }
    }
    return std::max(best, run);
}

/// Adjacent pairs of differing bits (the runs count is this plus one).
std::uint64_t transitions(const bit_sequence& seq);

/// Add the cyclic m-bit pattern counts of `seq` (m in [1, 24], n >= m) to
/// counts[0, 2^m), indexed by the MSB-first pattern value.
void add_cyclic_patterns(const bit_sequence& seq, unsigned m,
                         std::uint64_t* counts);

} // namespace otf::nist
