#include "nist/word_loops.hpp"

#include "nist/tests.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace otf::nist {

namespace {

/// The +/-1 walk over one byte (bit 1 steps up): its displacement, the
/// extreme prefix sums after 1..8 steps and, for every start s in
/// [-8, 8], how many of the 8 steps land on zero (zeros[s + 8]; a start
/// farther out reads the 0 at zeros[17]).
struct byte_walk {
    std::int8_t delta;
    std::int8_t max_prefix;
    std::int8_t min_prefix;
    std::array<std::uint8_t, 18> zeros;
};

constexpr std::array<byte_walk, 256> make_walk_table()
{
    std::array<byte_walk, 256> table{};
    for (unsigned b = 0; b < 256; ++b) {
        byte_walk& t = table[b];
        int s = 0;
        int hi = -8;
        int lo = 8;
        for (unsigned i = 0; i < 8; ++i) {
            s += ((b >> i) & 1u) != 0 ? 1 : -1;
            hi = std::max(hi, s);
            lo = std::min(lo, s);
            if (s >= -8 && s <= 8) {
                // Start -s reaches zero here.
                ++t.zeros[static_cast<std::size_t>(8 - s)];
            }
        }
        t.delta = static_cast<std::int8_t>(s);
        t.max_prefix = static_cast<std::int8_t>(hi);
        t.min_prefix = static_cast<std::int8_t>(lo);
    }
    return table;
}

constexpr std::array<byte_walk, 256> kWalk = make_walk_table();

/// For a 7-bit window (bit k = stream bit k), the 4-bit patterns that
/// start at its bits 0..3, tallied in 8-bit lanes: the MSB-first pattern
/// v in byte v % 8 of lanes[v / 8].
struct pattern_tally {
    std::array<std::uint64_t, 2> lanes;
};

constexpr std::array<pattern_tally, 128> make_pattern_table()
{
    std::array<pattern_tally, 128> table{};
    for (unsigned w = 0; w < 128; ++w) {
        for (unsigned k = 0; k < 4; ++k) {
            unsigned v = 0;
            for (unsigned j = 0; j < 4; ++j) {
                v = (v << 1) | ((w >> (k + j)) & 1u);
            }
            table[w].lanes[v / 8] += std::uint64_t{1} << (8 * (v % 8));
        }
    }
    return table;
}

constexpr std::array<pattern_tally, 128> kPatterns = make_pattern_table();

/// Add the cyclic 4-bit pattern counts of a sequence of n >= 64 bits to
/// counts[0, 16): one table lookup per four starts.
void add_four_bit_patterns(const bit_sequence& seq, std::uint64_t* counts)
{
    const std::size_t n = seq.size();
    const std::uint64_t head = seq.words()[0];
    // 64 bits of the cyclic sequence from position q < 2n on.
    const auto cyclic_bits = [&](std::size_t q) {
        q = q >= n ? q - n : q;
        std::uint64_t x = bits_from(seq, q);
        if (n - q < 64) {
            x |= head << (n - q);
        }
        return x;
    };
    std::array<std::uint64_t, 2> lanes{};
    const auto flush = [&] {
        for (unsigned v = 0; v < 8; ++v) {
            counts[v] += (lanes[0] >> (8 * v)) & 0xffu;
            counts[v + 8] += (lanes[1] >> (8 * v)) & 0xffu;
        }
        lanes = {};
    };
    const std::size_t whole = n / 4 * 4;
    for (std::size_t p = 0; p < whole; p += 64) {
        const std::uint64_t x = cyclic_bits(p);
        const std::uint64_t next = cyclic_bits(p + 64);
        const std::size_t nibbles = std::min<std::size_t>(64, whole - p) / 4;
        for (std::size_t k = 0; k < nibbles; ++k) {
            const std::uint64_t w =
                k < 15 ? x >> (4 * k) : (x >> 60) | (next << 4);
            const pattern_tally& t = kPatterns[w & 0x7fu];
            lanes[0] += t.lanes[0];
            lanes[1] += t.lanes[1];
        }
        // A lane gains at most 4 per nibble, 64 per word: flush every
        // third word, before it can pass 255.
        if (p / 64 % 3 == 2) {
            flush();
        }
    }
    flush();
    // The last n % 4 starts, one at a time.
    for (std::size_t i = whole; i < n; ++i) {
        unsigned v = 0;
        for (std::size_t j = 0; j < 4; ++j) {
            v = (v << 1) | (seq[(i + j) % n] ? 1u : 0u);
        }
        ++counts[v];
    }
}

} // namespace

std::uint64_t transitions(const bit_sequence& seq)
{
    const std::vector<std::uint64_t>& words = seq.words();
    const std::size_t n = seq.size();
    std::uint64_t total = 0;
    for (std::size_t j = 0; j < words.size(); ++j) {
        const std::uint64_t x = words[j];
        // Pairs (i, i + 1) inside the word: one fewer than its bits.
        const std::size_t bits = std::min<std::size_t>(64, n - 64 * j);
        total += static_cast<std::uint64_t>(
            std::popcount((x ^ (x >> 1)) & low_bits(bits - 1)));
        if (j > 0) {
            total += (words[j - 1] >> 63) ^ (x & 1u);
        }
    }
    return total;
}

void add_cyclic_patterns(const bit_sequence& seq, unsigned m,
                         std::uint64_t* counts)
{
    const std::size_t n = seq.size();
    if (m <= 4 && n >= 64) {
        // Count at 4 bits; cyclic counts marginalize exactly to shorter
        // patterns (the (m-1)-bit pattern p heads the m-bit patterns 2p
        // and 2p + 1).
        std::array<std::uint64_t, 16> four{};
        add_four_bit_patterns(seq, four.data());
        for (unsigned bits = 4; bits > m; --bits) {
            for (std::size_t p = 0; p < std::size_t{1} << (bits - 1); ++p) {
                four[p] = four[2 * p] + four[2 * p + 1];
            }
        }
        for (std::size_t v = 0; v < std::size_t{1} << m; ++v) {
            counts[v] += four[v];
        }
        return;
    }
    // Slide an m-bit window once per start: over the straight part its
    // last bit runs from m-1 to n-1; the m-1 starts past n-m wrap around
    // onto bits 0..m-2.
    const std::uint32_t mask = (1u << m) - 1u;
    std::uint32_t window = 0;
    for (unsigned j = 0; j + 1 < m; ++j) {
        window = ((window << 1) | (seq[j] ? 1u : 0u)) & mask;
    }
    for (std::size_t last = m - 1; last < n; ++last) {
        window = ((window << 1) | (seq[last] ? 1u : 0u)) & mask;
        ++counts[window];
    }
    for (unsigned last = 0; last + 1 < m; ++last) {
        window = ((window << 1) | (seq[last] ? 1u : 0u)) & mask;
        ++counts[window];
    }
}

walk_extent random_walk(const bit_sequence& seq)
{
    walk_extent walk;
    const std::vector<std::uint64_t>& words = seq.words();
    const std::size_t whole_bytes = seq.size() / 8;
    std::int64_t s = 0;
    for (std::size_t i = 0; i < whole_bytes; ++i) {
        const byte_walk& t = kWalk[(words[i / 8] >> (8 * (i % 8))) & 0xffu];
        walk.max = std::max(walk.max, s + t.max_prefix);
        walk.min = std::min(walk.min, s + t.min_prefix);
        const auto start = static_cast<std::uint64_t>(s + 8);
        walk.zero_returns += t.zeros[start <= 16 ? start : 17];
        s += t.delta;
    }
    for (std::size_t i = whole_bytes * 8; i < seq.size(); ++i) {
        s += seq[i] ? 1 : -1;
        walk.max = std::max(walk.max, s);
        walk.min = std::min(walk.min, s);
        walk.zero_returns += s == 0 ? 1 : 0;
    }
    walk.final = s;
    return walk;
}

} // namespace otf::nist
