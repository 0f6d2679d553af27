// Property-based tests of the reference implementations: behaviour on
// ideal and defective sources, invariants of the pattern-count helpers,
// parameterized over seeds.
#include "nist/tests.hpp"
#include "trng/sources.hpp"

#include <cstdint>
#include <gtest/gtest.h>
#include <numeric>
#include <vector>

namespace {

using namespace otf;
using namespace otf::nist;

class seeded : public ::testing::TestWithParam<std::uint64_t> {
protected:
    bit_sequence ideal(std::size_t n)
    {
        trng::ideal_source src(GetParam());
        return src.generate(n);
    }
};

TEST_P(seeded, cyclic_pattern_counts_sum_to_n)
{
    const bit_sequence seq = ideal(4096);
    for (const unsigned m : {1u, 2u, 3u, 4u, 6u}) {
        const auto counts = cyclic_pattern_counts(seq, m);
        const std::uint64_t total =
            std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
        EXPECT_EQ(total, seq.size()) << "m=" << m;
    }
}

// The cyclic m-bit counts by their definition: the window at each start
// reads bits (start + j) mod n.  The reference for cyclic_pattern_counts
// and for the shorter counts serial and approximate entropy derive.
std::vector<std::uint64_t> naive_cyclic_counts(const bit_sequence& seq,
                                               unsigned m)
{
    const std::size_t n = seq.size();
    std::vector<std::uint64_t> counts(std::size_t{1} << m, 0);
    for (std::size_t start = 0; start < n; ++start) {
        std::uint32_t v = 0;
        for (unsigned j = 0; j < m; ++j) {
            v = (v << 1) | (seq[(start + j) % n] ? 1u : 0u);
        }
        ++counts[v];
    }
    return counts;
}

TEST_P(seeded, cyclic_marginal_property)
{
    // Summing the m-bit counts over the last bit yields the (m-1)-bit
    // counts exactly (the cyclic extension makes the marginal identity
    // exact).  Serial counts once at m and approximate entropy once at
    // m+1 on this identity (cyclic_marginal_counts).
    const bit_sequence seq = ideal(2048);
    for (unsigned m = 2; m <= 10; ++m) {
        const auto nu = cyclic_pattern_counts(seq, m);
        const auto nu1 = cyclic_pattern_counts(seq, m - 1);
        for (std::uint32_t p = 0; p < nu1.size(); ++p) {
            EXPECT_EQ(nu[2 * p] + nu[2 * p + 1], nu1[p])
                << "m=" << m << ", pattern " << p;
        }
        EXPECT_EQ(cyclic_marginal_counts(nu), nu1) << "m=" << m;
    }
}

TEST_P(seeded, cyclic_pattern_counts_match_the_naive_reference)
{
    // Wrap-heavy lengths: at n = m every window but the first wraps.
    for (unsigned m = 1; m <= 10; ++m) {
        for (const std::size_t n :
             {std::size_t{m}, std::size_t{m} + 1, std::size_t{2 * m - 1},
              std::size_t{127}, std::size_t{128}, std::size_t{1000}}) {
            const bit_sequence seq = ideal(n);
            EXPECT_EQ(cyclic_pattern_counts(seq, m),
                      naive_cyclic_counts(seq, m))
                << "m=" << m << ", n=" << n;
        }
    }
}

TEST_P(seeded, serial_and_apen_derived_counts_equal_direct_counts)
{
    for (const std::size_t n : {3u, 5u, 128u, 1000u, 1024u}) {
        const bit_sequence seq = ideal(n);
        for (unsigned m = 2; m <= 8 && m <= n; ++m) {
            const auto r = serial_test(seq, m);
            EXPECT_EQ(r.nu_m, naive_cyclic_counts(seq, m));
            EXPECT_EQ(r.nu_m1, naive_cyclic_counts(seq, m - 1))
                << "m=" << m << ", n=" << n;
            const std::vector<std::uint64_t> nu_m2 = m == 2
                ? std::vector<std::uint64_t>{n}
                : naive_cyclic_counts(seq, m - 2);
            EXPECT_EQ(r.nu_m2, nu_m2) << "m=" << m << ", n=" << n;
        }
        for (unsigned m = 1; m <= 7 && m < n; ++m) {
            const auto r = approximate_entropy_test(seq, m);
            EXPECT_EQ(r.nu_m, naive_cyclic_counts(seq, m))
                << "m=" << m << ", n=" << n;
            EXPECT_EQ(r.nu_m1, naive_cyclic_counts(seq, m + 1));
        }
    }
}

TEST_P(seeded, serial_psi_statistics_nonnegative)
{
    const bit_sequence seq = ideal(8192);
    const auto r = serial_test(seq, 4);
    EXPECT_GE(r.del1, 0.0);
    EXPECT_GE(r.del2, 0.0);
    EXPECT_GE(r.p_value1, 0.0);
    EXPECT_LE(r.p_value1, 1.0);
    EXPECT_GE(r.p_value2, 0.0);
    EXPECT_LE(r.p_value2, 1.0);
}

TEST_P(seeded, cusum_consistency_with_frequency)
{
    // S_final = 2 N_ones - n ties the two tests together (trick 1).
    const bit_sequence seq = ideal(4096);
    const auto c = cumulative_sums_test(seq);
    const auto f = frequency_test(seq);
    EXPECT_EQ(c.s_final, f.s_n);
    const auto ones = static_cast<std::int64_t>(seq.count_ones());
    EXPECT_EQ((c.s_final + static_cast<std::int64_t>(seq.size())) / 2, ones);
}

TEST_P(seeded, cusum_extrema_bound_final)
{
    const bit_sequence seq = ideal(4096);
    const auto c = cumulative_sums_test(seq);
    EXPECT_GE(c.s_max, 0);
    EXPECT_LE(c.s_min, 0);
    EXPECT_GE(c.s_max, c.s_final);
    EXPECT_LE(c.s_min, c.s_final);
    EXPECT_GE(c.z_forward, 1);
    EXPECT_GE(c.z_backward, 1);
}

TEST_P(seeded, block_frequency_ones_partition_total)
{
    const bit_sequence seq = ideal(4096);
    const auto r = block_frequency_test(seq, 256);
    const std::uint64_t total =
        std::accumulate(r.ones.begin(), r.ones.end(), std::uint64_t{0});
    EXPECT_EQ(total, seq.count_ones());
}

TEST_P(seeded, longest_run_blocks_partition)
{
    const bit_sequence seq = ideal(8192);
    const auto r = longest_run_test(seq, 128);
    const std::uint64_t blocks =
        std::accumulate(r.nu.begin(), r.nu.end(), std::uint64_t{0});
    EXPECT_EQ(blocks, seq.size() / 128);
}

TEST_P(seeded, ideal_source_produces_sane_p_values)
{
    const bit_sequence seq = ideal(65536);
    EXPECT_GT(frequency_test(seq).p_value, 1e-6);
    EXPECT_GT(block_frequency_test(seq, 4096).p_value, 1e-6);
    EXPECT_GT(runs_test(seq).p_value, 1e-6);
    EXPECT_GT(longest_run_test(seq, 128).p_value, 1e-6);
    EXPECT_GT(serial_test(seq, 4).p_value1, 1e-6);
    EXPECT_GT(approximate_entropy_test(seq, 3).p_value, 1e-6);
    EXPECT_GT(cumulative_sums_test(seq).p_forward, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(seeds, seeded,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

TEST(defect_detection, stuck_source_fails_frequency_hard)
{
    const bit_sequence seq(4096, true);
    EXPECT_LT(frequency_test(seq).p_value, 1e-12);
    EXPECT_FALSE(runs_test(seq).applicable);
}

TEST(defect_detection, heavy_bias_fails_frequency)
{
    trng::biased_source src(3, 0.6);
    const bit_sequence seq = src.generate(65536);
    EXPECT_LT(frequency_test(seq).p_value, 1e-9);
}

TEST(defect_detection, correlation_fails_runs_but_not_frequency)
{
    // A sticky Markov source is balanced but has too few runs: the case
    // for running many tests at once.
    trng::markov_source src(7, 0.65);
    const bit_sequence seq = src.generate(65536);
    EXPECT_GT(frequency_test(seq).p_value, 1e-4)
        << "marginal bias stays small";
    EXPECT_LT(runs_test(seq).p_value, 1e-12);
    EXPECT_LT(serial_test(seq, 4).p_value1, 1e-9);
}

TEST(defect_detection, periodic_source_fails_serial)
{
    trng::periodic_source src(bit_sequence::from_string("0110"));
    const bit_sequence seq = src.generate(4096);
    EXPECT_LT(serial_test(seq, 4).p_value1, 1e-12);
    EXPECT_LT(approximate_entropy_test(seq, 3).p_value, 1e-12);
}

TEST(p_value_distribution, roughly_uniform_for_ideal_source)
{
    // Coarse uniformity check: over 200 ideal windows the frequency-test
    // P-value should fall below 0.1 roughly 10% +- 8% of the time.
    unsigned below = 0;
    const unsigned trials = 200;
    for (unsigned s = 0; s < trials; ++s) {
        trng::ideal_source src(1000 + s);
        const bit_sequence seq = src.generate(4096);
        if (frequency_test(seq).p_value < 0.1) {
            ++below;
        }
    }
    EXPECT_GT(below, 4u);
    EXPECT_LT(below, 40u);
}

} // namespace
