// Tests of the SP 800-90B continuous health tests: cutoff mathematics
// (exact binomial quantiles), engine behaviour (sticky alarms, detection
// latency in bits), false-alarm control on healthy streams, and the
// engines composed onto a monitored channel through its tap.
#include "core/design_config.hpp"
#include "core/fleet_monitor.hpp"
#include "core/sp80090b.hpp"
#include "hw/health_tests.hpp"
#include "trng/sources.hpp"

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <optional>
#include <string>

namespace {

using namespace otf;
using core::apt_cutoff;
using core::binomial_survival;
using core::rct_cutoff;

constexpr double nan = std::numeric_limits<double>::quiet_NaN();
constexpr double inf = std::numeric_limits<double>::infinity();

/// The message of the std::invalid_argument `call` throws; empty when it
/// throws nothing.
template <class Call>
std::string rejection(Call call)
{
    try {
        (void)call();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return {};
}

// ------------------------------------------------------------- cutoffs --
TEST(sp80090b_cutoffs, rct_follows_the_standard_formula)
{
    // C = 1 + ceil(20 / H) at the 2^-20 false-alarm rate.
    EXPECT_EQ(rct_cutoff(1.0), 21u);
    EXPECT_EQ(rct_cutoff(0.5), 41u);
    EXPECT_EQ(rct_cutoff(0.25), 81u);
    EXPECT_THROW(rct_cutoff(0.0), std::invalid_argument);
    EXPECT_THROW(rct_cutoff(1.5), std::invalid_argument);
    // A NaN claim fails every comparison; a tiny claim puts C past
    // `unsigned`; a non-positive or non-finite exponent is no false-alarm
    // rate.  Each is rejected instead of cast.
    EXPECT_THROW(rct_cutoff(nan), std::invalid_argument);
    EXPECT_THROW(rct_cutoff(1e-12), std::invalid_argument);
    EXPECT_THROW(rct_cutoff(1.0, -5.0), std::invalid_argument);
    EXPECT_THROW(rct_cutoff(1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(rct_cutoff(1.0, nan), std::invalid_argument);
    EXPECT_THROW(rct_cutoff(1.0, inf), std::invalid_argument);
}

TEST(sp80090b_cutoffs, apt_cutoff_rejects_invalid_claims_by_name)
{
    for (const double claim : {nan, 0.0, -1.0, 1.5}) {
        const std::string what =
            rejection([&] { return apt_cutoff(1024, claim); });
        EXPECT_NE(what.find("apt_cutoff: binary entropy claim"),
                  std::string::npos)
            << "claim " << claim << ": \"" << what << "\"";
    }
    for (const double exponent : {nan, inf, 0.0, -5.0}) {
        const std::string what =
            rejection([&] { return apt_cutoff(1024, 1.0, exponent); });
        EXPECT_NE(what.find("apt_cutoff: false-alarm exponent"),
                  std::string::npos)
            << "exponent " << exponent << ": \"" << what << "\"";
    }
}

TEST(sp80090b_cutoffs, binomial_survival_exact_small_cases)
{
    // Bin(4, 0.5): P[X >= 3] = (4 + 1) / 16.
    EXPECT_NEAR(binomial_survival(4, 0.5, 3), 5.0 / 16.0, 1e-12);
    EXPECT_NEAR(binomial_survival(4, 0.5, 0), 1.0, 1e-12);
    EXPECT_NEAR(binomial_survival(4, 0.5, 5), 0.0, 1e-12);
    // Bin(10, 0.3): P[X >= 10] = 0.3^10.
    EXPECT_NEAR(binomial_survival(10, 0.3, 10), std::pow(0.3, 10), 1e-15);
}

TEST(sp80090b_cutoffs, apt_cutoff_is_the_exact_binomial_quantile)
{
    const unsigned w = 1024;
    const unsigned c = apt_cutoff(w, 1.0);
    const double alpha = std::pow(2.0, -20.0);
    EXPECT_LE(binomial_survival(w, 0.5, c), alpha);
    EXPECT_GT(binomial_survival(w, 0.5, c - 1), alpha);
    // Mean 512, sigma 16: the 2^-20 quantile sits ~5 sigma above mean.
    EXPECT_GT(c, 560u);
    EXPECT_LT(c, 620u);
}

TEST(sp80090b_cutoffs, apt_cutoff_monotone_in_entropy_claim)
{
    // A weaker entropy claim tolerates more repetitions of the reference.
    EXPECT_GT(apt_cutoff(1024, 0.5), apt_cutoff(1024, 1.0));
}

// -------------------------------------------------------------- engines --
TEST(repetition_count, alarms_exactly_at_the_cutoff)
{
    hw::repetition_count_hw rct(5);
    std::uint64_t index = 0;
    // Four repeats: no alarm yet.
    for (int i = 0; i < 4; ++i) {
        rct.consume(true, index++);
    }
    EXPECT_FALSE(rct.alarm());
    EXPECT_EQ(rct.current_run(), 4u);
    rct.consume(true, index++);
    EXPECT_TRUE(rct.alarm()) << "fifth identical bit hits cutoff 5";
}

TEST(repetition_count, alternating_stream_never_alarms)
{
    hw::repetition_count_hw rct(5);
    for (std::uint64_t i = 0; i < 10000; ++i) {
        rct.consume((i & 1) != 0, i);
    }
    EXPECT_FALSE(rct.alarm());
    EXPECT_EQ(rct.longest_run(), 1u);
}

TEST(repetition_count, alarm_is_sticky_until_cleared)
{
    hw::repetition_count_hw rct(3);
    std::uint64_t index = 0;
    for (int i = 0; i < 3; ++i) {
        rct.consume(false, index++);
    }
    EXPECT_TRUE(rct.alarm());
    rct.consume(true, index++); // healthy bits don't clear it
    rct.consume(false, index++);
    EXPECT_TRUE(rct.alarm());
    rct.clear_alarm();
    EXPECT_FALSE(rct.alarm());
}

TEST(repetition_count, healthy_stream_false_alarm_free_at_scale)
{
    // 2^21 healthy bits against the 2^-20 cutoff: expected ~2 alarms is
    // the order of magnitude, but the sticky flag makes any single run
    // of 21 a fail; use a higher cutoff margin to assert "no alarm".
    hw::repetition_count_hw rct(core::rct_cutoff(1.0) + 10);
    trng::ideal_source src(99);
    for (std::uint64_t i = 0; i < (1u << 21); ++i) {
        rct.consume(src.next_bit(), i);
    }
    EXPECT_FALSE(rct.alarm());
}

TEST(adaptive_proportion, alarms_on_heavy_bias_within_one_window)
{
    hw::adaptive_proportion_hw apt(10, core::apt_cutoff(1024, 1.0));
    trng::biased_source src(3, 0.75);
    bool alarmed = false;
    for (std::uint64_t i = 0; i < 1024 && !alarmed; ++i) {
        apt.consume(src.next_bit(), i);
        alarmed = apt.alarm();
    }
    EXPECT_TRUE(alarmed) << "p = 0.75 crosses the ~0.58 cutoff fraction";
}

TEST(adaptive_proportion, healthy_stream_stays_quiet)
{
    hw::adaptive_proportion_hw apt(10, core::apt_cutoff(1024, 1.0));
    trng::ideal_source src(4);
    for (std::uint64_t i = 0; i < (1u << 20); ++i) {
        apt.consume(src.next_bit(), i);
    }
    EXPECT_FALSE(apt.alarm())
        << "1024 windows at 2^-20 false-alarm rate";
}

TEST(adaptive_proportion, window_restarts_reset_the_count)
{
    hw::adaptive_proportion_hw apt(4, 14); // 16-bit windows, cutoff 14
    // 13 ones then window boundary, then 13 more: no alarm because the
    // count restarts with each window.
    std::uint64_t index = 0;
    for (int w = 0; w < 2; ++w) {
        for (int i = 0; i < 13; ++i) {
            apt.consume(true, index++);
        }
        for (int i = 0; i < 3; ++i) {
            apt.consume(false, index++);
        }
    }
    EXPECT_FALSE(apt.alarm());
}

TEST(adaptive_proportion, rejects_bad_parameters)
{
    EXPECT_THROW(hw::adaptive_proportion_hw(2, 3), std::invalid_argument);
    EXPECT_THROW(hw::adaptive_proportion_hw(10, 2000),
                 std::invalid_argument);
}

TEST(adaptive_proportion, rejects_a_wide_window_before_sizing_it)
{
    // The window exponent is checked before it becomes a shift count
    // (undefined from 64 on) or a counter width.
    for (const unsigned log2_window : {17u, 64u, 70u}) {
        EXPECT_EQ(rejection([&] {
                      return hw::adaptive_proportion_hw(log2_window, 3);
                  }),
                  "adaptive_proportion_hw: window must be 2^4..2^16 bits, "
                  "got 2^"
                      + std::to_string(log2_window))
            << "log2_window " << log2_window;
    }
}

TEST(health_engines, each_mapped_name_reads_its_counter)
{
    // add_registers declares the names, read_registers writes the values
    // in the same order: a stuck stream sets every counter and alarm.
    hw::repetition_count_hw rct(5);
    hw::adaptive_proportion_hw apt(4, 14);
    for (std::uint64_t i = 0; i < 12; ++i) {
        rct.consume(true, i);
        apt.consume(true, i);
    }
    hw::register_map map;
    rct.add_registers(map);
    const std::size_t apt_base = map.size();
    apt.add_registers(map);
    rct.read_registers(map.values().data());
    apt.read_registers(map.values().data() + apt_base);
    ASSERT_EQ(map.size(), 4u);
    EXPECT_EQ(map.read_value("health.rct_longest"), 12);
    EXPECT_EQ(map.read_value("health.rct_alarm"), 1);
    EXPECT_EQ(map.read_value("health.apt_count"), 12);
    EXPECT_EQ(map.read_value("health.apt_alarm"), 0);
    EXPECT_EQ(static_cast<std::uint64_t>(map.read_value("health.rct_longest")),
              rct.longest_run());
    EXPECT_EQ(static_cast<std::uint64_t>(map.read_value("health.apt_count")),
              apt.current_count());
}

TEST(health_engines, cost_a_few_slices_only)
{
    // The 90B tests are tiny -- the reason the standard can demand them
    // always-on.
    hw::repetition_count_hw rct(21);
    hw::adaptive_proportion_hw apt(10, 589);
    const auto total = rct.cost() + apt.cost();
    EXPECT_LT(rtl::estimate_spartan6(total).slices, 15u);
}

// ----------------------------------------------------------- integration --
/// The SP 800-90B tests composed onto one fleet channel: a tap feeds every
/// raw window to both engines with a running bit index, and records the
/// window in which each engine first alarmed.
struct continuous_tests {
    hw::repetition_count_hw rct{rct_cutoff(1.0)};
    hw::adaptive_proportion_hw apt{10, apt_cutoff(1024, 1.0)};
    std::uint64_t bit_index = 0;
    std::optional<std::uint64_t> rct_window;
    std::optional<std::uint64_t> apt_window;

    core::window_hooks hooks()
    {
        core::window_hooks h;
        h.tap = [this](std::uint64_t window, const std::uint64_t* words,
                       std::size_t nwords) {
            rct.consume_span(words, nwords * 64, bit_index);
            apt.consume_span(words, nwords * 64, bit_index);
            bit_index += nwords * 64;
            if (rct.alarm() && !rct_window) {
                rct_window = window;
            }
            if (apt.alarm() && !apt_window) {
                apt_window = window;
            }
        };
        return h;
    }
};

core::channel_report run_channel(trng::entropy_source& source,
                                 std::uint64_t windows,
                                 const core::window_hooks& hooks)
{
    core::fleet_config cfg;
    cfg.block = core::paper_design(16, core::tier::light);
    cfg.alpha = 0.01;
    cfg.fail_threshold = 3;
    cfg.policy_window = 8;
    cfg.validate();
    return core::run_fleet_channel(
        cfg, core::compute_critical_values(cfg.block, cfg.alpha),
        std::nullopt, source, 0, windows, hooks);
}

TEST(continuous_tests_tap, stuck_source_alarms_in_the_first_window)
{
    continuous_tests ct;
    trng::stuck_source dead(true);
    const core::channel_report report = run_channel(dead, 1, ct.hooks());
    ASSERT_TRUE(ct.rct_window.has_value());
    EXPECT_EQ(*ct.rct_window, 0u);
    EXPECT_TRUE(ct.apt.alarm());
    EXPECT_FALSE(report.alarm)
        << "the window policy needs 3 failures; the RCT fired first";
    EXPECT_EQ(report.failures, 1u);
}

TEST(continuous_tests_tap, healthy_source_quiet_over_short_horizon)
{
    // The RCT's 2^-20 cutoff means a random 21-run -- a legitimate false
    // alarm -- is expected roughly once per 2M bits, so "quiet" can only
    // be asserted over a horizon well below that (here: 6 windows =
    // 393k bits, false-alarm probability ~17%; seed 123's first megabit
    // has an 18-run at most).
    continuous_tests ct;
    trng::ideal_source src(123);
    const core::channel_report report = run_channel(src, 6, ct.hooks());
    EXPECT_EQ(ct.bit_index, 6u << 16);
    EXPECT_FALSE(ct.rct.alarm());
    EXPECT_FALSE(ct.apt.alarm());
    EXPECT_FALSE(report.alarm);
}

TEST(continuous_tests_tap, rejects_invalid_parameters_by_value)
{
    // The window exponent is checked before 1 << exponent is formed.
    for (const unsigned log2_window : {3u, 17u, 32u, 40u}) {
        const std::string what = rejection([&] {
            return hw::adaptive_proportion_hw(log2_window, 3);
        });
        EXPECT_NE(what.find("got 2^" + std::to_string(log2_window)),
                  std::string::npos)
            << "log2_window " << log2_window << ": \"" << what << "\"";
    }
    for (const std::string& what :
         {rejection([] { return rct_cutoff(nan); }),
          rejection([] { return apt_cutoff(1024, nan); })}) {
        EXPECT_NE(what.find("entropy claim must be in (0, 1], got nan"),
                  std::string::npos)
            << "\"" << what << "\"";
    }
}

} // namespace
