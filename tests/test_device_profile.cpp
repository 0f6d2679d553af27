// Tests of the per-device variation sampler and the device_source wrapper:
// pure-function determinism of sampling, distribution bounds, lane
// bit-exactness across all device kinds, dormancy before the attack onset,
// mid-run churn of healthy devices, and parameter validation.
#include "trng/device_profile.hpp"

#include "support/fixed_seed.hpp"

#include <cstdint>
#include <gtest/gtest.h>
#include <set>
#include <stdexcept>
#include <vector>

namespace {

using namespace otf;
using namespace otf::trng;
using test::fixture_seed;

bool same_profile(const device_profile& a, const device_profile& b)
{
    return a.device == b.device && a.kind == b.kind && a.seed == b.seed
        && a.p_one == b.p_one && a.peak_severity == b.peak_severity
        && a.onset_window == b.onset_window && a.churns == b.churns
        && a.churn_window == b.churn_window
        && a.churn_p_one == b.churn_p_one && a.rtn_duty == b.rtn_duty
        && a.collapse_fraction == b.collapse_fraction
        && a.substitution_period_bits == b.substitution_period_bits;
}

/// A fixed attacked profile for the device_source tests; kind varies.
device_profile attacked_profile(device_kind kind)
{
    device_profile p;
    p.device = 42;
    p.kind = kind;
    p.seed = fixture_seed(7);
    p.p_one = 0.49;
    p.peak_severity = 0.8;
    p.onset_window = 2;
    p.rtn_duty = 0.6;
    p.collapse_fraction = 0.9;
    p.substitution_period_bits = 256;
    return p;
}

const device_kind kAttackedKinds[] = {
    device_kind::rtn,          device_kind::bias_drift,
    device_kind::lock_in,      device_kind::fault,
    device_kind::entropy_collapse, device_kind::substitution,
};

TEST(device_profile, sampling_is_a_pure_function)
{
    const population_profile pp;
    for (std::uint32_t d = 0; d < 32; ++d) {
        const device_profile a = sample_device(pp, fixture_seed(1), d);
        const device_profile b = sample_device(pp, fixture_seed(1), d);
        EXPECT_TRUE(same_profile(a, b)) << "device " << d;
        EXPECT_EQ(a.device, d);
    }
    // A different master seed is a different population.
    const device_profile a = sample_device(pp, fixture_seed(1), 5);
    const device_profile b = sample_device(pp, fixture_seed(2), 5);
    EXPECT_NE(a.seed, b.seed);
}

TEST(device_profile, sampled_parameters_respect_the_distributions)
{
    population_profile pp;
    pp.attacked_fraction = 0.25;
    constexpr std::uint32_t kDevices = 2000;
    std::uint32_t attacked = 0;
    std::uint32_t churned = 0;
    std::set<std::uint64_t> seeds;
    for (std::uint32_t d = 0; d < kDevices; ++d) {
        const device_profile p = sample_device(pp, fixture_seed(3), d);
        seeds.insert(p.seed);
        EXPECT_GE(p.p_one, 0.5 - pp.healthy_bias_half_range);
        EXPECT_LE(p.p_one, 0.5 + pp.healthy_bias_half_range);
        EXPECT_GE(p.peak_severity, pp.min_peak_severity);
        EXPECT_LE(p.peak_severity, pp.max_peak_severity);
        EXPECT_GE(p.onset_window, pp.onset_min_window);
        EXPECT_LE(p.onset_window, pp.onset_max_window);
        EXPECT_GE(p.rtn_duty, pp.rtn_min_duty);
        EXPECT_LE(p.rtn_duty, pp.rtn_max_duty);
        EXPECT_GE(p.collapse_fraction, pp.collapse_min_fraction);
        EXPECT_LE(p.collapse_fraction, pp.collapse_max_fraction);
        EXPECT_TRUE(p.substitution_period_bits == 128
                    || p.substitution_period_bits == 256
                    || p.substitution_period_bits == 512);
        if (p.attacked()) {
            ++attacked;
            EXPECT_FALSE(p.churns) << "churn models fleet turnover of "
                                      "healthy units only";
        } else {
            EXPECT_EQ(p.kind, device_kind::healthy);
            if (p.churns) {
                ++churned;
                EXPECT_GE(p.churn_window, pp.churn_min_window);
                EXPECT_LE(p.churn_window, pp.churn_max_window);
            }
        }
    }
    // Loose binomial bounds: ~5 sigma around the expected counts.
    EXPECT_GT(attacked, kDevices / 4 - 100u);
    EXPECT_LT(attacked, kDevices / 4 + 100u);
    EXPECT_GT(churned, 0u);
    EXPECT_EQ(seeds.size(), kDevices) << "per-device seeds must differ";
}

TEST(device_profile, zero_weight_kinds_are_never_drawn)
{
    population_profile pp;
    pp.attacked_fraction = 1.0;
    pp.model_weights = {0.0, 1.0, 0.0, 1.0, 0.0, 0.0};
    for (std::uint32_t d = 0; d < 200; ++d) {
        const device_profile p = sample_device(pp, fixture_seed(4), d);
        EXPECT_TRUE(p.kind == device_kind::bias_drift
                    || p.kind == device_kind::fault)
            << to_string(p.kind);
    }
}

TEST(device_profile, device_source_lanes_are_bit_exact)
{
    // The fleet generates device words in bulk (fill_words); the per-bit
    // lane is the oracle.  Both must agree for every kind, across the
    // onset (and churn) transitions.
    for (const device_kind kind : kAttackedKinds) {
        const device_profile p = attacked_profile(kind);
        device_source via_bits(p, 128);
        device_source via_words(p, 128);
        const bit_sequence seq = via_bits.generate(128 * 6);
        const std::vector<std::uint64_t> words =
            via_words.generate_words(128 * 6 / 64);
        EXPECT_EQ(seq, bit_sequence::from_words(words, 128 * 6))
            << to_string(kind);
    }
    device_profile churner;
    churner.seed = fixture_seed(8);
    churner.churns = true;
    churner.churn_window = 2;
    device_source via_bits(churner, 128);
    device_source via_words(churner, 128);
    const bit_sequence seq = via_bits.generate(128 * 6);
    const std::vector<std::uint64_t> words =
        via_words.generate_words(128 * 6 / 64);
    EXPECT_EQ(seq, bit_sequence::from_words(words, 128 * 6)) << "churn";
}

TEST(device_profile, ragged_interleaving_is_bit_exact)
{
    const std::size_t chunks[] = {1, 7, 64, 3, 128, 61, 192, 5};
    for (const device_kind kind : kAttackedKinds) {
        device_source oracle(attacked_profile(kind), 128);
        device_source ragged(attacked_profile(kind), 128);
        bit_sequence want;
        bit_sequence got;
        std::vector<std::uint64_t> words; // reused across chunks
        for (const std::size_t bits : chunks) {
            for (std::size_t i = 0; i < bits; ++i) {
                want.push_back(oracle.next_bit());
            }
            if (bits % 64 == 0) {
                ragged.generate_words(words, bits / 64);
                const auto part = bit_sequence::from_words(words, bits);
                for (std::size_t i = 0; i < part.size(); ++i) {
                    got.push_back(part[i]);
                }
            } else {
                for (std::size_t i = 0; i < bits; ++i) {
                    got.push_back(ragged.next_bit());
                }
            }
        }
        EXPECT_EQ(want, got) << to_string(kind);
    }
}

TEST(device_profile, attack_is_dormant_before_its_onset_window)
{
    // Before the onset window the model sits at severity 0, which is a
    // transparent pass-through: the stream must equal that of the same
    // device with its onset pushed past the horizon.  After onset they
    // must diverge (the attack is real).
    for (const device_kind kind : kAttackedKinds) {
        device_profile p = attacked_profile(kind);
        p.onset_window = 3;
        device_profile never = p;
        never.onset_window = 1000000;
        device_source attacked_src(p, 128);
        device_source dormant_src(never, 128);
        const std::size_t pre_bits = 3 * 128;
        EXPECT_EQ(attacked_src.generate(pre_bits),
                  dormant_src.generate(pre_bits))
            << to_string(kind) << ": pre-onset prefix must be healthy";
        // Generous post-onset horizon: bias-drift's walk only steps
        // every 2048 bits, so a short suffix could legitimately match.
        EXPECT_NE(attacked_src.generate(128 * 80),
                  dormant_src.generate(128 * 80))
            << to_string(kind) << ": post-onset streams must diverge";
    }
}

TEST(device_profile, churn_swaps_the_unit_at_its_window)
{
    device_profile p;
    p.seed = fixture_seed(9);
    p.p_one = 0.5;
    p.churns = true;
    p.churn_window = 2;
    p.churn_p_one = 0.5;
    device_profile stays = p;
    stays.churns = false;
    device_source churning(p, 128);
    device_source staying(stays, 128);
    EXPECT_EQ(churning.generate(2 * 128), staying.generate(2 * 128))
        << "pre-churn prefix is the original unit";
    EXPECT_NE(churning.generate(4 * 128), staying.generate(4 * 128))
        << "the replacement unit has its own seed";
}

TEST(device_profile, onset_window_zero_attacks_from_the_first_bit)
{
    device_profile p = attacked_profile(device_kind::substitution);
    p.onset_window = 0;
    p.peak_severity = 1.0;
    device_source src(p, 128);
    // A severity-1 substitution replays a fixed 256-bit block: the
    // stream must be periodic from the start.
    const bit_sequence bits = src.generate(1024);
    for (std::size_t i = 0; i + 256 < bits.size(); ++i) {
        ASSERT_EQ(bits[i], bits[i + 256]) << "bit " << i;
    }
}

TEST(device_profile, validation_rejects_bad_parameters)
{
    {
        population_profile pp;
        pp.attacked_fraction = 1.5;
        EXPECT_THROW(pp.validate(), std::invalid_argument);
    }
    {
        population_profile pp;
        pp.model_weights = {0, 0, 0, 0, 0, 0};
        EXPECT_THROW(pp.validate(), std::invalid_argument);
    }
    {
        population_profile pp;
        pp.model_weights[2] = -1.0;
        EXPECT_THROW(pp.validate(), std::invalid_argument);
    }
    {
        population_profile pp;
        pp.min_peak_severity = 0.9;
        pp.max_peak_severity = 0.5;
        EXPECT_THROW(pp.validate(), std::invalid_argument);
    }
    {
        population_profile pp;
        pp.onset_min_window = 9;
        pp.onset_max_window = 3;
        EXPECT_THROW(pp.validate(), std::invalid_argument);
    }
    {
        population_profile pp;
        pp.rtn_min_duty = 0.0;
        EXPECT_THROW(pp.validate(), std::invalid_argument);
    }
    {
        population_profile pp;
        pp.healthy_bias_half_range = 0.5;
        EXPECT_THROW(pp.validate(), std::invalid_argument);
    }
    EXPECT_THROW(device_source(device_profile{}, 0),
                 std::invalid_argument);
    EXPECT_THROW(device_source(device_profile{}, 100),
                 std::invalid_argument);
}

} // namespace
