// The offline battery's fast paths against their oracles: the word loops
// against the per-bit loops they replaced (support/nist_byte_oracles.hpp),
// the shortened cusum series against the full one, and the cached
// longest-run class probabilities against a fresh computation.
#include "nist/distributions.hpp"
#include "nist/special_functions.hpp"
#include "nist/tests.hpp"
#include "nist/word_loops.hpp"
#include "support/fixed_seed.hpp"
#include "support/nist_byte_oracles.hpp"
#include "trng/sources.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace otf;
using namespace otf::nist;

constexpr std::size_t kMaxLength = 2112; // 33 words

bit_sequence alternating(std::size_t n)
{
    bit_sequence seq;
    for (std::size_t i = 0; i < n; ++i) {
        seq.push_back(i % 2 == 1);
    }
    return seq;
}

// At every length 1..2112: the all-zero, all-one and alternating
// sequences, a random prefix, and a random slice at an odd offset (its
// words are shifted copies, so partial final words come from slice()).
template <class Check>
void for_each_sequence(Check check)
{
    trng::ideal_source src(test::fixture_seed(36));
    const bit_sequence base = src.generate(kMaxLength + 128);
    for (std::size_t n = 1; n <= kMaxLength; ++n) {
        const std::size_t offset = 2 * (n % 61) + 1;
        const bit_sequence corpus[] = {
            bit_sequence(n, false), bit_sequence(n, true), alternating(n),
            base.slice(0, n), base.slice(offset, n)};
        for (const bit_sequence& seq : corpus) {
            check(seq);
            if (::testing::Test::HasFailure()) {
                return;
            }
        }
    }
}

std::string describe(const bit_sequence& seq)
{
    return "n = " + std::to_string(seq.size()) + ", ones = "
        + std::to_string(seq.count_ones());
}

TEST(bit_sequence_layout, words_are_the_bits_with_a_zero_tail)
{
    trng::ideal_source src(test::fixture_seed(37));
    const bit_sequence base = src.generate(kMaxLength + 128);
    for_each_sequence([&](const bit_sequence& seq) {
        const std::size_t n = seq.size();
        ASSERT_EQ(seq.words().size(), (n + 63) / 64) << describe(seq);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ((seq.words()[i / 64] >> (i % 64)) & 1u,
                      seq[i] ? 1u : 0u)
                << describe(seq) << ", bit " << i;
        }
        if (n % 64 != 0) {
            EXPECT_EQ(seq.words().back() >> (n % 64), 0u) << describe(seq);
        }
        EXPECT_EQ(bit_sequence::from_words(seq.to_words(), n), seq);
        EXPECT_EQ(bit_sequence::from_string(seq.to_string()), seq);
    });
    // A slice is the bits it names, at every offset.
    for (std::size_t first = 0; first < 130; ++first) {
        const bit_sequence s = base.slice(first, 300);
        for (std::size_t i = 0; i < s.size(); ++i) {
            ASSERT_EQ(s[i], base[first + i]) << first << " + " << i;
        }
        EXPECT_EQ(s.words().back() >> (300 % 64), 0u) << first;
    }
}

TEST(bit_sequence_layout, unaligned_appends_and_sets_keep_the_tail_zero)
{
    bit_sequence seq(5, true);
    seq.append_words({0xf0f0f0f0f0f0f0f0ull, ~0ull});
    EXPECT_EQ(seq.size(), 133u);
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(seq[5 + i], ((0xf0f0f0f0f0f0f0f0ull >> i) & 1u) != 0);
    }
    seq.set(132, false);
    EXPECT_FALSE(seq[132]);
    EXPECT_EQ(seq.words().back() >> (133 % 64), 0u);
    EXPECT_THROW(seq.set(133, true), std::out_of_range);
    EXPECT_EQ(bit_sequence(133, false), bit_sequence::from_words({0, 0, 0}, 133));
}

TEST(word_loops, frequency_and_runs_match_the_per_bit_loops)
{
    for_each_sequence([](const bit_sequence& seq) {
        EXPECT_EQ(frequency_test(seq).s_n, test::frequency_sum_per_bit(seq))
            << describe(seq);
        EXPECT_EQ(transitions(seq) + 1, test::runs_per_bit(seq))
            << describe(seq);
    });
}

TEST(word_loops, block_ones_and_longest_runs_match_the_per_bit_loops)
{
    for_each_sequence([](const bit_sequence& seq) {
        const std::size_t n = seq.size();
        for (const std::size_t m : {1u, 5u, 8u, 20u, 64u, 100u, 128u}) {
            for (std::size_t b = 0; (b + 1) * m <= n; ++b) {
                ASSERT_EQ(ones_in(seq, b * m, m),
                          test::block_ones_per_bit(seq, b * m, m))
                    << describe(seq) << ", M = " << m << ", block " << b;
                ASSERT_EQ(longest_ones_run(seq, b * m, m),
                          test::longest_run_per_bit(seq, b * m, m))
                    << describe(seq) << ", M = " << m << ", block " << b;
            }
        }
        // One block of the whole sequence, from an odd start.
        ASSERT_EQ(ones_in(seq, n / 2 | 1u, n - (n / 2 | 1u)),
                  test::block_ones_per_bit(seq, n / 2 | 1u, n - (n / 2 | 1u)))
            << describe(seq);
        ASSERT_EQ(longest_ones_run(seq, 0, n),
                  test::longest_run_per_bit(seq, 0, n))
            << describe(seq);
    });
}

TEST(word_loops, cyclic_pattern_counts_match_the_sliding_window)
{
    for_each_sequence([](const bit_sequence& seq) {
        for (unsigned m = 1; m <= 6 && m <= seq.size(); ++m) {
            ASSERT_EQ(cyclic_pattern_counts(seq, m),
                      test::cyclic_counts_per_bit(seq, m))
                << describe(seq) << ", m = " << m;
        }
    });
}

TEST(word_loops, walk_matches_the_per_bit_walk)
{
    for_each_sequence([](const bit_sequence& seq) {
        const walk_extent word = random_walk(seq);
        const walk_extent bit = test::walk_per_bit(seq);
        ASSERT_EQ(word.max, bit.max) << describe(seq);
        ASSERT_EQ(word.min, bit.min) << describe(seq);
        ASSERT_EQ(word.final, bit.final) << describe(seq);
        ASSERT_EQ(word.zero_returns, bit.zero_returns) << describe(seq);
    });
}

// The cusum series as SP 800-22 writes it: every term of both sums, each
// sum in increasing k (the series before the early stop).
double full_cusum_series(std::int64_t z, std::size_t n)
{
    const double zd = static_cast<double>(z);
    const double sqrt_n = std::sqrt(static_cast<double>(n));
    const auto ratio = static_cast<std::int64_t>(n) / z;
    double sum1 = 0.0;
    for (std::int64_t k = (-ratio + 1) / 4; k <= (ratio - 1) / 4; ++k) {
        const double a = static_cast<double>(4 * k + 1) * zd;
        const double b = static_cast<double>(4 * k - 1) * zd;
        sum1 += normal_cdf(a / sqrt_n) - normal_cdf(b / sqrt_n);
    }
    double sum2 = 0.0;
    for (std::int64_t k = (-ratio - 3) / 4; k <= (ratio - 3) / 4; ++k) {
        const double a = static_cast<double>(4 * k + 3) * zd;
        const double b = static_cast<double>(4 * k + 1) * zd;
        sum2 += normal_cdf(a / sqrt_n) - normal_cdf(b / sqrt_n);
    }
    return 1.0 - sum1 + sum2;
}

TEST(cusum_series, early_stop_is_bit_identical_at_the_evidence_lengths)
{
    for (std::size_t w = 1; w <= 8; ++w) {
        const std::size_t n = 128 * w;
        for (std::int64_t z = 1; z <= static_cast<std::int64_t>(n); ++z) {
            const double fast = cumulative_sums_p_value(z, n);
            const double full = full_cusum_series(z, n);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(fast),
                      std::bit_cast<std::uint64_t>(full))
                << "n = " << n << ", z = " << z << ": " << fast << " vs "
                << full;
        }
    }
}

TEST(longest_run_probabilities, cached_classes_are_the_computed_ones)
{
    const struct {
        unsigned m, lo, hi;
    } keys[] = {{8, 1, 4}, {128, 4, 9}, {10000, 10, 16}, {64, 3, 8},
                {1024, 6, 14}};
    for (const auto& k : keys) {
        const std::vector<double> fresh =
            longest_run_category_probs(k.m, k.lo, k.hi);
        // The first call builds the entry, the second reads it.
        for (int call = 0; call < 2; ++call) {
            std::vector<double> cached;
            cached_longest_run_category_probs(k.m, k.lo, k.hi, cached);
            ASSERT_EQ(cached.size(), fresh.size());
            for (std::size_t c = 0; c < fresh.size(); ++c) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(cached[c]),
                          std::bit_cast<std::uint64_t>(fresh[c]))
                    << "M = " << k.m << ", class " << c;
            }
        }
    }
}

TEST(longest_run_probabilities, concurrent_first_calls_agree)
{
    // Several threads ask for keys no earlier call built; each must get
    // the computed classes (the TSan leg checks the cache's publication).
    constexpr unsigned kThreads = 4;
    std::vector<std::vector<double>> got(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&got, t] {
            for (unsigned m = 200; m < 216; ++m) {
                cached_longest_run_category_probs(m, 5, 11, got[t]);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    const std::vector<double> fresh = longest_run_category_probs(215, 5, 11);
    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_EQ(got[t], fresh) << "thread " << t;
    }
}

} // namespace
