// Property tests for the span-kernel primitives in base/bits.hpp: every
// kernel variant (reference, portable, simd) must agree with a naive
// per-bit model on ragged lengths, word seams and extreme inputs, and
// bit_sequence must round-trip through its packed form.
//
// tests/test_kernel_oracle.cpp pins the *users* of these primitives (the
// engines' consume_span kernels) against the per-bit oracle; this file
// pins the primitives themselves, so a kernel bug fails here first with a
// small reproducer instead of deep inside a design run.
#include "base/bits.hpp"
#include "trng/xoshiro.hpp"

#include "support/fixed_seed.hpp"

#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <vector>

namespace {

using namespace otf;
using test::fixture_seed;

constexpr bits::kernel_variant kAllVariants[] = {
    bits::kernel_variant::reference,
    bits::kernel_variant::portable,
    bits::kernel_variant::simd,
};

const char* variant_name(bits::kernel_variant v)
{
    switch (v) {
    case bits::kernel_variant::reference: return "reference";
    case bits::kernel_variant::portable: return "portable";
    case bits::kernel_variant::simd: return "simd";
    }
    return "?";
}

struct variant_guard {
    ~variant_guard()
    {
        bits::set_kernel_variant(bits::default_kernel_variant());
    }
};

std::vector<std::uint64_t> random_words(std::uint64_t seed, std::size_t n)
{
    trng::xoshiro256ss rng(seed);
    std::vector<std::uint64_t> words(n);
    for (std::uint64_t& w : words) {
        w = rng.next();
    }
    return words;
}

// Naive per-bit models -- deliberately the dumbest possible code.

std::uint64_t naive_popcount(const std::vector<std::uint64_t>& words,
                             std::size_t nbits)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < nbits; ++i) {
        total += (words[i / 64] >> (i % 64)) & 1u;
    }
    return total;
}

std::uint64_t naive_transitions(const std::vector<std::uint64_t>& words,
                                std::size_t nwords)
{
    std::uint64_t total = 0;
    for (std::size_t i = 1; i < nwords * 64; ++i) {
        const unsigned a =
            static_cast<unsigned>((words[i / 64] >> (i % 64)) & 1u);
        const unsigned b = static_cast<unsigned>(
            (words[(i - 1) / 64] >> ((i - 1) % 64)) & 1u);
        total += a ^ b;
    }
    return total;
}

bits::walk_summary naive_walk(const std::vector<std::uint64_t>& words,
                              std::size_t nwords)
{
    bits::walk_summary acc{0, -65, 65};
    for (std::size_t i = 0; i < nwords * 64; ++i) {
        acc.delta += ((words[i / 64] >> (i % 64)) & 1u) != 0 ? 1 : -1;
        acc.max_prefix =
            acc.delta > acc.max_prefix ? acc.delta : acc.max_prefix;
        acc.min_prefix =
            acc.delta < acc.min_prefix ? acc.delta : acc.min_prefix;
    }
    return acc;
}

// ---------------------------------------------------------------------------
// low_mask / prefix_popcount.
// ---------------------------------------------------------------------------

TEST(bits_kernels, low_mask_edges)
{
    EXPECT_EQ(bits::low_mask(0), 0u);
    EXPECT_EQ(bits::low_mask(1), 1u);
    EXPECT_EQ(bits::low_mask(63), ~std::uint64_t{0} >> 1);
    EXPECT_EQ(bits::low_mask(64), ~std::uint64_t{0});
}

TEST(bits_kernels, prefix_popcount_matches_naive_for_every_k)
{
    variant_guard guard;
    const auto words = random_words(fixture_seed(0), 8);
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        for (const std::uint64_t w : words) {
            for (unsigned k = 0; k <= 64; ++k) {
                unsigned naive = 0;
                for (unsigned i = 0; i < k; ++i) {
                    naive += static_cast<unsigned>((w >> i) & 1u);
                }
                EXPECT_EQ(bits::prefix_popcount(w, k), naive)
                    << variant_name(v) << " k=" << k;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// span_popcount: every ragged length from empty through several words
// (covers the SIMD block, the 4-word SWAR block, the word loop and the
// masked tail in one sweep).
// ---------------------------------------------------------------------------

TEST(bits_kernels, span_popcount_matches_naive_on_ragged_lengths)
{
    variant_guard guard;
    const auto words = random_words(fixture_seed(1), 12);
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        for (std::size_t nbits = 0; nbits <= 64 * 11 + 1; ++nbits) {
            ASSERT_EQ(bits::span_popcount(words.data(), nbits),
                      naive_popcount(words, nbits))
                << variant_name(v) << " nbits=" << nbits;
        }
    }
}

TEST(bits_kernels, span_popcount_masks_garbage_past_the_tail)
{
    variant_guard guard;
    // All-ones words: any unmasked tail bit inflates the count.
    const std::vector<std::uint64_t> ones(5, ~std::uint64_t{0});
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        for (const std::size_t nbits : {1u, 63u, 65u, 100u, 257u}) {
            EXPECT_EQ(bits::span_popcount(ones.data(), nbits), nbits)
                << variant_name(v);
        }
    }
}

TEST(bits_kernels, range_popcount_matches_naive_at_every_offset)
{
    variant_guard guard;
    const auto words = random_words(fixture_seed(8), 6);
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        for (std::size_t first = 0; first <= 130; ++first) {
            for (const std::size_t nbits :
                 {0u, 1u, 7u, 63u, 64u, 65u, 200u}) {
                std::uint64_t naive = 0;
                for (std::size_t i = first; i < first + nbits; ++i) {
                    naive += (words[i / 64] >> (i % 64)) & 1u;
                }
                ASSERT_EQ(bits::range_popcount(words.data(), first, nbits),
                          naive)
                    << variant_name(v) << " first=" << first
                    << " nbits=" << nbits;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// span_transitions: word seams carry the previous MSB across.
// ---------------------------------------------------------------------------

TEST(bits_kernels, span_transitions_matches_naive)
{
    variant_guard guard;
    const auto words = random_words(fixture_seed(2), 9);
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        for (std::size_t nwords = 0; nwords <= words.size(); ++nwords) {
            EXPECT_EQ(bits::span_transitions(words.data(), nwords),
                      naive_transitions(words, nwords))
                << variant_name(v) << " nwords=" << nwords;
        }
    }
}

TEST(bits_kernels, span_transitions_counts_seam_transitions)
{
    variant_guard guard;
    // Word 0 ends in 1 (MSB set), word 1 starts with 0: exactly one
    // transition at the seam plus one at word 0's own 0->1 step.
    const std::vector<std::uint64_t> words = {std::uint64_t{1} << 63, 0};
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        EXPECT_EQ(bits::span_transitions(words.data(), 2), 2u)
            << variant_name(v);
    }
}

// ---------------------------------------------------------------------------
// prefix_walk / span_walk: the byte-table (portable) and SWAR
// (simd) walks against the per-bit trajectory, including extreme words
// that saturate the byte lanes.
// ---------------------------------------------------------------------------

TEST(bits_kernels, walk_table_holds_every_byte_summary)
{
    // The portable walk folds one table entry per byte, so every entry
    // must be the exact 8-step summary of its byte.
    for (unsigned b = 0; b < 256; ++b) {
        int s = 0;
        int hi = -8;
        int lo = 8;
        for (unsigned i = 0; i < 8; ++i) {
            s += ((b >> i) & 1u) != 0 ? 1 : -1;
            hi = s > hi ? s : hi;
            lo = s < lo ? s : lo;
        }
        const auto& entry = bits::detail::kWalkTable[b];
        EXPECT_EQ(entry.delta, s) << "byte " << b;
        EXPECT_EQ(entry.max_prefix, hi) << "byte " << b;
        EXPECT_EQ(entry.min_prefix, lo) << "byte " << b;
    }
}

TEST(bits_kernels, prefix_walk_matches_naive_for_every_k)
{
    variant_guard guard;
    auto words = random_words(fixture_seed(7), 8);
    words.push_back(0);
    words.push_back(~std::uint64_t{0});
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        for (const std::uint64_t w : words) {
            for (unsigned k = 0; k <= 64; ++k) {
                bits::walk_summary naive{0, -65, 65};
                for (unsigned i = 0; i < k; ++i) {
                    naive.delta += ((w >> i) & 1u) != 0 ? 1 : -1;
                    naive.max_prefix = naive.delta > naive.max_prefix
                        ? naive.delta
                        : naive.max_prefix;
                    naive.min_prefix = naive.delta < naive.min_prefix
                        ? naive.delta
                        : naive.min_prefix;
                }
                const bits::walk_summary got = bits::prefix_walk(w, k);
                ASSERT_EQ(got.delta, naive.delta)
                    << variant_name(v) << " k=" << k;
                ASSERT_EQ(got.max_prefix, naive.max_prefix)
                    << variant_name(v) << " k=" << k;
                ASSERT_EQ(got.min_prefix, naive.min_prefix)
                    << variant_name(v) << " k=" << k;
            }
        }
    }
}

TEST(bits_kernels, full_word_walk_matches_naive_on_random_and_extreme_words)
{
    variant_guard guard;
    auto words = random_words(fixture_seed(3), 32);
    words.push_back(0);                    // min everywhere, delta -64
    words.push_back(~std::uint64_t{0});    // max everywhere, delta +64
    words.push_back(0xaaaaaaaaaaaaaaaaull); // alternating from 0
    words.push_back(0x5555555555555555ull); // alternating from 1
    words.push_back(bits::low_mask(32));    // +32 then back down
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        for (const std::uint64_t w : words) {
            const std::vector<std::uint64_t> one = {w};
            const bits::walk_summary naive = naive_walk(one, 1);
            const bits::walk_summary got = bits::prefix_walk(w, 64);
            EXPECT_EQ(got.delta, naive.delta) << variant_name(v);
            EXPECT_EQ(got.max_prefix, naive.max_prefix) << variant_name(v);
            EXPECT_EQ(got.min_prefix, naive.min_prefix) << variant_name(v);
        }
    }
}

TEST(bits_kernels, span_walk_matches_naive_on_every_span_length)
{
    variant_guard guard;
    const auto words = random_words(fixture_seed(4), 11);
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        for (std::size_t nwords = 0; nwords <= words.size(); ++nwords) {
            const bits::walk_summary naive = naive_walk(words, nwords);
            const bits::walk_summary got =
                bits::span_walk(words.data(), nwords);
            EXPECT_EQ(got.delta, naive.delta)
                << variant_name(v) << " nwords=" << nwords;
            EXPECT_EQ(got.max_prefix, naive.max_prefix)
                << variant_name(v) << " nwords=" << nwords;
            EXPECT_EQ(got.min_prefix, naive.min_prefix)
                << variant_name(v) << " nwords=" << nwords;
        }
    }
}

TEST(bits_kernels, span_walk_tracks_extremes_across_word_boundaries)
{
    variant_guard guard;
    // Up 64, down 64, up 64: the max lives at the end of words 0 and 2,
    // the min at the end of word 1 -- the fold must carry offsets right.
    const std::vector<std::uint64_t> words = {
        ~std::uint64_t{0}, 0, ~std::uint64_t{0}};
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        const bits::walk_summary s = bits::span_walk(words.data(), 3);
        EXPECT_EQ(s.delta, 64) << variant_name(v);
        EXPECT_EQ(s.max_prefix, 64) << variant_name(v);
        EXPECT_EQ(s.min_prefix, 0) << variant_name(v);
    }
}

// ---------------------------------------------------------------------------
// bit_sequence packing: to_words / from_words round trip.
// ---------------------------------------------------------------------------

TEST(bits_kernels, bit_sequence_word_round_trip)
{
    bit_sequence seq;
    const auto words = random_words(fixture_seed(11), 16);
    for (std::size_t i = 0; i < 1000; ++i) {
        seq.push_back(((words[i / 64] >> (i % 64)) & 1u) != 0);
    }
    const auto packed = seq.to_words();
    EXPECT_EQ(packed.size(), 16u); // ceil(1000 / 64)
    EXPECT_EQ(packed[15] >> (1000 % 64), 0u) << "bits past the end are zero";
    EXPECT_EQ(bit_sequence::from_words(packed, 1000), seq);
    EXPECT_THROW(bit_sequence::from_words(packed, 1025), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------------

TEST(bits_kernels, kernel_variant_round_trips)
{
    variant_guard guard;
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        EXPECT_EQ(bits::active_kernel_variant(), v);
    }
}

} // namespace
