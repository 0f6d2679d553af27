// Tests of the precomputed critical values: each integer bound must encode
// the same accept/reject boundary as the reference statistic it inverts,
// and the whole table must respond to alpha the way the paper's
// flexibility argument requires.
#include "core/critical_values.hpp"
#include "core/design_config.hpp"
#include "nist/distributions.hpp"
#include "nist/special_functions.hpp"
#include "nist/tests.hpp"
#include "sw16/pwl_xlogx.hpp"
#include "trng/xoshiro.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

namespace {

using namespace otf;
using core::compute_critical_values;
using core::critical_values;

const hw::block_config cfg_high = core::paper_design(16, core::tier::high);

TEST(critical_values, frequency_bound_inverts_erfc)
{
    const auto cv = compute_critical_values(cfg_high, 0.01);
    const double n = 65536.0;
    // P(|S| = bound) must be >= alpha and P(|S| = bound + 1) < alpha...
    // S has the parity of n (even), so step by 2.
    const double p_at = nist::erfc(
        static_cast<double>(cv.t1_max_deviation) / std::sqrt(2.0 * n));
    const double p_beyond = nist::erfc(
        static_cast<double>(cv.t1_max_deviation + 2) / std::sqrt(2.0 * n));
    EXPECT_GE(p_at, 0.01);
    EXPECT_LT(p_beyond, 0.01);
}

TEST(critical_values, block_frequency_bound_inverts_chi_squared)
{
    const auto cv = compute_critical_values(cfg_high, 0.01);
    const double m = 4096.0;
    const double chi_at = static_cast<double>(cv.t2_sum_bound) / m;
    const double chi_beyond =
        static_cast<double>(cv.t2_sum_bound + 1) / m;
    EXPECT_GE(nist::igamc(8.0, chi_at / 2.0), 0.01);
    EXPECT_LT(nist::igamc(8.0, chi_beyond / 2.0), 0.0101);
}

TEST(critical_values, runs_intervals_tile_admissible_range)
{
    const auto cv = compute_critical_values(cfg_high, 0.01);
    ASSERT_FALSE(cv.t3_intervals.empty());
    // Contiguous cover of the tau-admissible N_ones range.
    for (std::size_t i = 1; i < cv.t3_intervals.size(); ++i) {
        EXPECT_EQ(cv.t3_intervals[i].ones_lo,
                  cv.t3_intervals[i - 1].ones_hi + 1);
    }
    const double tau_ones = 2.0 * std::sqrt(65536.0);
    EXPECT_NEAR(static_cast<double>(cv.t3_intervals.front().ones_lo),
                65536.0 / 2.0 - tau_ones, 2.0);
    EXPECT_NEAR(static_cast<double>(cv.t3_intervals.back().ones_hi),
                65536.0 / 2.0 + tau_ones, 2.0);
}

TEST(critical_values, runs_bounds_match_reference_at_midpoint)
{
    const auto cv = compute_critical_values(cfg_high, 0.01);
    const double n = 65536.0;
    const double e = nist::erfc_inv(0.01);
    for (const auto& iv : cv.t3_intervals) {
        const double ones =
            0.5 * static_cast<double>(iv.ones_lo + iv.ones_hi);
        const double pi = ones / n;
        const double center = 2.0 * n * pi * (1.0 - pi);
        const double c = 2.0 * std::sqrt(2.0 * n) * pi * (1.0 - pi) * e;
        EXPECT_NEAR(static_cast<double>(iv.runs_lo), center - c, 1.5);
        EXPECT_NEAR(static_cast<double>(iv.runs_hi), center + c, 1.5);
    }
}

TEST(critical_values, longest_run_weights_invert_pi)
{
    const auto cv = compute_critical_values(cfg_high, 0.01);
    const auto pi = nist::longest_run_category_probs(128, 4, 9);
    ASSERT_EQ(cv.t4_weights_q.size(), pi.size());
    for (std::size_t c = 0; c < pi.size(); ++c) {
        EXPECT_NEAR(static_cast<double>(cv.t4_weights_q[c]),
                    std::ldexp(1.0 / pi[c], 12), 1.0)
            << "category " << c;
    }
}

TEST(critical_values, cusum_bound_is_the_largest_accepting_z)
{
    const auto cv = compute_critical_values(cfg_high, 0.01);
    EXPECT_GE(nist::cumulative_sums_p_value(cv.t13_z_bound, 65536), 0.01);
    EXPECT_LT(nist::cumulative_sums_p_value(cv.t13_z_bound + 1, 65536),
              0.01);
}

TEST(critical_values, serial_bounds_scale_with_n)
{
    const auto cv16 = compute_critical_values(cfg_high, 0.01);
    const auto cv20 = compute_critical_values(
        core::paper_design(20, core::tier::high), 0.01);
    EXPECT_NEAR(static_cast<double>(cv20.t11_del1_bound),
                16.0 * static_cast<double>(cv16.t11_del1_bound), 16.0)
        << "bound = n * chi2_crit is linear in n";
}

TEST(critical_values, tighter_alpha_widens_acceptance)
{
    // Smaller alpha = fewer type-1 errors = larger thresholds.  This is
    // the paper's flexibility property: only constants change.
    const auto strict = compute_critical_values(cfg_high, 0.001);
    const auto loose = compute_critical_values(cfg_high, 0.01);
    EXPECT_GT(strict.t1_max_deviation, loose.t1_max_deviation);
    EXPECT_GT(strict.t2_sum_bound, loose.t2_sum_bound);
    EXPECT_GT(strict.t4_sum_bound, loose.t4_sum_bound);
    EXPECT_GT(strict.t7_sum_bound, loose.t7_sum_bound);
    EXPECT_GT(strict.t8_sum_bound, loose.t8_sum_bound);
    EXPECT_GT(strict.t11_del1_bound, loose.t11_del1_bound);
    EXPECT_GT(strict.t13_z_bound, loose.t13_z_bound);
    EXPECT_LT(strict.t12_apen_min_q16, loose.t12_apen_min_q16)
        << "the ApEn acceptance is a lower bound, so it moves down";
}

TEST(critical_values, computed_only_for_enabled_tests)
{
    const auto cfg = core::paper_design(16, core::tier::light);
    const auto cv = compute_critical_values(cfg, 0.01);
    EXPECT_EQ(cv.t7_sum_bound, 0);
    EXPECT_TRUE(cv.t8_weights_q.empty());
    EXPECT_EQ(cv.t11_del1_bound, 0);
    EXPECT_GT(cv.t1_max_deviation, 0);
    EXPECT_GT(cv.t13_z_bound, 0);
}

TEST(critical_values, apen_calibration_is_cached_and_deterministic)
{
    const auto a = compute_critical_values(cfg_high, 0.01);
    const auto b = compute_critical_values(cfg_high, 0.01);
    EXPECT_EQ(a.t12_apen_min_q16, b.t12_apen_min_q16);
    EXPECT_GT(a.t12_apen_min_q16, 0);
    // The threshold sits below the Q16 image of ln 2 (the statistic's
    // asymptote) but within a plausible distance of it.
    const std::int64_t ln2_q16 = 45426;
    EXPECT_LT(a.t12_apen_min_q16, ln2_q16);
    EXPECT_GT(a.t12_apen_min_q16, ln2_q16 - 3000);
}

/// The ApEn calibration counted bit by bit: the same 256 seeded samples,
/// drawn by next_bit(), each slid through an m-bit window and closed by
/// the cyclic flush of its opening m-1 bits, the way the serial engine's
/// per-bit lane counts a window.  The span-kernel calibration must give
/// the same bound.
std::int64_t per_bit_apen_threshold(unsigned log2_n, unsigned m, double alpha)
{
    const std::uint64_t n = std::uint64_t{1} << log2_n;
    const unsigned samples = 256;
    trng::xoshiro256ss rng(0xA9E117C0FEE5ull);
    const auto to_q16 = [&](std::uint64_t nu) -> std::uint32_t {
        if (log2_n >= 16) {
            return static_cast<std::uint32_t>(nu >> (log2_n - 16));
        }
        return static_cast<std::uint32_t>(nu << (16 - log2_n));
    };
    double sum = 0.0;
    double sum_sq = 0.0;
    std::vector<std::uint64_t> counts_m(std::size_t{1} << m);
    std::vector<std::uint64_t> counts_m1(std::size_t{1} << (m - 1));
    for (unsigned s = 0; s < samples; ++s) {
        std::fill(counts_m.begin(), counts_m.end(), 0);
        std::fill(counts_m1.begin(), counts_m1.end(), 0);
        const std::uint32_t mask_m = (1u << m) - 1u;
        const std::uint32_t mask_m1 = (1u << (m - 1)) - 1u;
        std::uint32_t window = 0;
        std::uint32_t opening = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint32_t bit = rng.next_bit() ? 1u : 0u;
            if (i < m - 1) {
                opening |= bit << i;
            }
            window = ((window << 1) | bit) & mask_m;
            if (i + 1 >= m) {
                ++counts_m[window];
            }
            if (i + 1 >= m - 1) {
                ++counts_m1[window & mask_m1];
            }
        }
        for (unsigned t = 0; t + 1 < m; ++t) { // cyclic flush
            const std::uint32_t bit = (opening >> t) & 1u;
            window = ((window << 1) | bit) & mask_m;
            ++counts_m[window];
            if (t < m - 2) {
                ++counts_m1[window & mask_m1];
            }
        }
        std::int64_t a = 0;
        for (const std::uint64_t nu : counts_m) {
            a += sw16::pwl_xlogx_q16(to_q16(nu));
        }
        std::int64_t b = 0;
        for (const std::uint64_t nu : counts_m1) {
            b += sw16::pwl_xlogx_q16(to_q16(nu));
        }
        const double apen = static_cast<double>(a - b);
        sum += apen;
        sum_sq += apen * apen;
    }
    const double mean = sum / samples;
    const double variance =
        (sum_sq - sum * sum / samples) / (samples - 1);
    const double z = nist::normal_quantile(1.0 - alpha);
    return static_cast<std::int64_t>(
        std::floor(mean - z * std::sqrt(std::max(variance, 1.0))));
}

TEST(critical_values, apen_calibration_matches_the_per_bit_count)
{
    // n = 32 draws two samples from each generator word.
    for (const unsigned log2_n : {5u, 7u, 10u}) {
        for (const unsigned m : {3u, 4u, 5u, 6u, 8u}) {
            if (m >= log2_n) {
                continue;
            }
            hw::block_config cfg;
            cfg.log2_n = log2_n;
            cfg.tests = hw::test_set{}
                            .with(hw::test_id::serial)
                            .with(hw::test_id::approximate_entropy);
            cfg.serial_m = m;
            for (const double alpha : {0.01, 0.001}) {
                EXPECT_EQ(compute_critical_values(cfg, alpha).t12_apen_min_q16,
                          per_bit_apen_threshold(log2_n, m, alpha))
                    << "n = 2^" << log2_n << ", m = " << m
                    << ", alpha = " << alpha;
            }
        }
    }
}

TEST(critical_values, apen_bounds_of_the_paper_designs_are_pinned)
{
    // Computed by the per-bit calibration; a change to how the samples
    // are drawn or counted must not move them.
    struct pinned {
        unsigned log2_n;
        core::tier tier;
        std::int64_t t12_apen_min_q16;
    };
    for (const pinned& p : {pinned{7, core::tier::medium, 39281},
                            pinned{16, core::tier::high, 45207},
                            pinned{20, core::tier::high, 45362}}) {
        const hw::block_config cfg = core::paper_design(p.log2_n, p.tier);
        EXPECT_EQ(compute_critical_values(cfg, 0.01).t12_apen_min_q16,
                  p.t12_apen_min_q16)
            << cfg.name;
    }
}

TEST(critical_values, rejects_nonsense_alpha)
{
    EXPECT_THROW(compute_critical_values(cfg_high, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(compute_critical_values(cfg_high, 0.7),
                 std::invalid_argument);
}

TEST(critical_values, nist_alpha_range_is_supported)
{
    // NIST recommends alpha in [0.001, 0.01]; both ends must work for
    // every paper design.
    for (const auto& cfg : core::all_paper_designs()) {
        for (const double alpha : {0.001, 0.01}) {
            const auto cv = compute_critical_values(cfg, alpha);
            EXPECT_GT(cv.t1_max_deviation, 0) << cfg.name;
            EXPECT_GT(cv.t13_z_bound, 0) << cfg.name;
        }
    }
}

} // namespace
