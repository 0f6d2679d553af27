// Tests of the on-the-fly monitor: statistical behaviour over many windows
// (type-1 rate near alpha for ideal sources, detection of every defect
// class), latency accounting against the paper's claims, and the
// health-monitor alarm policy.
#include "core/monitor.hpp"
#include "core/design_config.hpp"
#include "trng/ring_oscillator.hpp"
#include "trng/sources.hpp"

#include "support/fixed_seed.hpp"

#include <gtest/gtest.h>
#include <map>
#include <string>
#include <vector>

namespace {

using namespace otf;

hw::block_config fast_cfg()
{
    // A 4096-bit all-tests design keeps multi-window statistics cheap.
    return core::custom_design(
        12, hw::test_set{}
                .with(hw::test_id::frequency)
                .with(hw::test_id::block_frequency)
                .with(hw::test_id::runs)
                .with(hw::test_id::longest_run)
                .with(hw::test_id::non_overlapping_template)
                .with(hw::test_id::overlapping_template)
                .with(hw::test_id::serial)
                .with(hw::test_id::approximate_entropy)
                .with(hw::test_id::cumulative_sums));
}

TEST(monitor, ideal_source_pass_rate_close_to_one_minus_alpha)
{
    core::monitor mon(fast_cfg(), 0.01);
    trng::ideal_source src(2024);
    const unsigned windows = 300;
    unsigned passed = 0;
    for (unsigned w = 0; w < windows; ++w) {
        passed += mon.test_window(src).software.all_pass ? 1 : 0;
    }
    // Nine tests at alpha = 0.01 give an expected all-pass rate around
    // 0.92 (tests are not independent; cusum/frequency correlate).  Accept
    // a generous band; the point is that a healthy TRNG is *not* flagged.
    EXPECT_GT(passed, windows * 80 / 100);
    EXPECT_LT(passed, windows)
        << "with 300 windows some single-test failures must occur";
}

TEST(monitor, per_test_type1_rates_are_near_alpha)
{
    core::monitor mon(fast_cfg(), 0.01);
    trng::ideal_source src(777);
    const unsigned windows = 400;
    std::map<std::string, unsigned> failures;
    for (unsigned w = 0; w < windows; ++w) {
        const auto rep = mon.test_window(src);
        for (const auto& v : rep.software.verdicts) {
            if (!v.pass) {
                ++failures[v.name];
            }
        }
    }
    for (const auto& [name, count] : failures) {
        // Expected 4 failures per test; flag anything beyond 5x nominal.
        EXPECT_LE(count, 20u) << name << " rejects far above alpha";
    }
}

TEST(monitor, window_verdicts_are_reproducible_run_to_run)
{
    // The statistical tests above are tuned against the exact streams
    // their fixed seeds produce; this guards the premise.  Two monitors
    // fed identically-seeded sources must agree on every verdict, so any
    // hidden nondeterminism (shared RNG state, iteration-order dependence,
    // uninitialized engine state) fails this test deterministically
    // instead of flaking a type-1-rate band once in a thousand runs.
    core::monitor mon_a(fast_cfg(), 0.01);
    core::monitor mon_b(fast_cfg(), 0.01);
    trng::ideal_source src_a(otf::test::kCanonicalSeed);
    trng::ideal_source src_b(otf::test::kCanonicalSeed);
    for (unsigned w = 0; w < 30; ++w) {
        const auto rep_a = mon_a.test_window(src_a);
        const auto rep_b = mon_b.test_window(src_b);
        ASSERT_EQ(rep_a.software.verdicts.size(),
                  rep_b.software.verdicts.size());
        for (std::size_t i = 0; i < rep_a.software.verdicts.size(); ++i) {
            EXPECT_EQ(rep_a.software.verdicts[i].pass,
                      rep_b.software.verdicts[i].pass)
                << rep_a.software.verdicts[i].name << " at window " << w;
        }
    }
}

TEST(monitor, detects_stuck_source_immediately)
{
    core::monitor mon(fast_cfg(), 0.01);
    trng::stuck_source src(true);
    const auto rep = mon.test_window(src);
    EXPECT_FALSE(rep.software.all_pass);
    const auto* freq = rep.software.find(hw::test_id::frequency);
    ASSERT_NE(freq, nullptr);
    EXPECT_FALSE(freq->pass) << "total failure must trip the quick tests";
}

TEST(monitor, detects_moderate_bias)
{
    core::monitor mon(fast_cfg(), 0.01);
    trng::biased_source src(5, 0.56);
    unsigned failures = 0;
    for (unsigned w = 0; w < 20; ++w) {
        failures += mon.test_window(src).software.all_pass ? 0 : 1;
    }
    EXPECT_GE(failures, 18u) << "5.6% bias at n=4096 is far beyond tau";
}

TEST(monitor, detects_correlation_through_runs_and_serial)
{
    core::monitor mon(fast_cfg(), 0.01);
    trng::markov_source src(6, 0.60);
    const auto rep = mon.test_window(src);
    const auto* runs = rep.software.find(hw::test_id::runs);
    const auto* serial = rep.software.find(hw::test_id::serial);
    ASSERT_NE(runs, nullptr);
    ASSERT_NE(serial, nullptr);
    EXPECT_FALSE(runs->pass);
    EXPECT_FALSE(serial->pass);
}

TEST(monitor, detects_frequency_injection_attack)
{
    core::monitor mon(fast_cfg(), 0.01);
    trng::ring_oscillator_source src(11, {});

    unsigned healthy_failures = 0;
    for (unsigned w = 0; w < 10; ++w) {
        healthy_failures += mon.test_window(src).software.all_pass ? 0 : 1;
    }
    src.set_injection(0.95);
    unsigned attacked_failures = 0;
    for (unsigned w = 0; w < 10; ++w) {
        attacked_failures += mon.test_window(src).software.all_pass ? 0 : 1;
    }
    EXPECT_LE(healthy_failures, 3u);
    EXPECT_GE(attacked_failures, 9u)
        << "locking collapses jitter; the tests must see it";
}

TEST(monitor, detects_burst_failures)
{
    core::monitor mon(fast_cfg(), 0.01);
    trng::burst_failure_source src(8, 0.002, 256);
    unsigned failures = 0;
    for (unsigned w = 0; w < 10; ++w) {
        failures += mon.test_window(src).software.all_pass ? 0 : 1;
    }
    EXPECT_GE(failures, 8u)
        << "256-bit stuck bursts wreck longest-run and cusum";
}

TEST(monitor, software_latency_fits_generation_budget)
{
    // The paper's Table IV point: the software routine (thousands of
    // cycles on an MSP430-class core) is far below the n cycles the TRNG
    // needs to produce the next window.
    core::monitor mon(core::paper_design(16, core::tier::high), 0.01);
    trng::ideal_source src(9);
    const auto rep = mon.test_window(src);
    EXPECT_GT(rep.sw_cycles, 1000u) << "not a trivial computation";
    EXPECT_LT(rep.sw_cycles, rep.generation_cycles)
        << "testing must keep up with generation";
}

TEST(monitor, thirty_two_bit_platform_has_lower_latency)
{
    const auto cfg = core::paper_design(16, core::tier::high);
    core::monitor slow(cfg, 0.01, sw16::msp430_model());
    core::monitor fast(cfg, 0.01, sw16::cortex_like_model());
    trng::ideal_source a(4);
    trng::ideal_source b(4);
    const auto rep_slow = slow.test_window(a);
    const auto rep_fast = fast.test_window(b);
    EXPECT_LT(rep_fast.sw_cycles, rep_slow.sw_cycles)
        << "the paper's future-work projection";
}

TEST(monitor, lifetime_ops_accumulate)
{
    core::monitor mon(fast_cfg(), 0.01);
    trng::ideal_source src(1);
    const bit_sequence window = src.generate(1u << 12);
    (void)mon.test_sequence(window);
    const auto after_one = mon.lifetime_ops().total();
    (void)mon.test_sequence(window);
    EXPECT_EQ(mon.lifetime_ops().total(), 2 * after_one)
        << "identical windows cost identical instructions";
    EXPECT_EQ(mon.windows_tested(), 2u);
}

TEST(monitor, rejects_wrong_sequence_length)
{
    core::monitor mon(core::paper_design(7, core::tier::light), 0.01);
    try {
        mon.test_sequence(bit_sequence(100, false));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("128"), std::string::npos)
            << "message should name the expected length: " << what;
        EXPECT_NE(what.find("100"), std::string::npos)
            << "message should name the actual length: " << what;
    }
    // Too long is rejected up front as well, not mid-stream, on both the
    // per-bit and the packed entry points.
    EXPECT_THROW(mon.test_sequence(bit_sequence(256, false)),
                 std::invalid_argument);
    EXPECT_THROW(mon.test_sequence_words(std::vector<std::uint64_t>(3)),
                 std::invalid_argument);
    EXPECT_EQ(mon.windows_tested(), 0u);
}

TEST(monitor, feed_packed_rejects_overrun)
{
    // Streaming ingestion feeds partial windows through feed_span; a span
    // that would run past n is refused before any bit is consumed.
    core::monitor mon(core::paper_design(7, core::tier::light), 0.01);
    const std::vector<std::uint64_t> words(3, 0);
    EXPECT_THROW(mon.feed_packed(words.data(), 3), std::logic_error);
    EXPECT_EQ(mon.block().bits_consumed(), 0u);
    mon.feed_packed(words.data(), 2);
    EXPECT_THROW(mon.feed_packed(words.data(), 1), std::logic_error);
    (void)mon.finish_packed();
    EXPECT_EQ(mon.windows_tested(), 1u);
}

TEST(monitor, sequence_and_packed_sequence_agree)
{
    const hw::block_config cfg = core::paper_design(7, core::tier::medium);
    const bit_sequence seq =
        trng::ideal_source(test::fixture_seed(13)).generate(cfg.n());
    core::monitor oracle(cfg, 0.01);
    core::monitor fast(cfg, 0.01);
    const auto a = oracle.test_sequence(seq);
    const auto b = fast.test_sequence_words(seq.to_words());
    EXPECT_EQ(a.software.all_pass, b.software.all_pass);
    ASSERT_EQ(a.software.verdicts.size(), b.software.verdicts.size());
    for (std::size_t i = 0; i < a.software.verdicts.size(); ++i) {
        EXPECT_EQ(a.software.verdicts[i].statistic,
                  b.software.verdicts[i].statistic);
    }
    EXPECT_EQ(a.sw_cycles, b.sw_cycles);
}

TEST(health_monitor, alarm_after_threshold_failures)
{
    core::health_monitor hm(fast_cfg(), 0.01, {.fail_threshold = 2,
                                               .window = 8});
    trng::stuck_source bad(false);
    (void)hm.observe(bad);
    EXPECT_FALSE(hm.alarm()) << "one failure is below the threshold";
    (void)hm.observe(bad);
    EXPECT_TRUE(hm.alarm());
    EXPECT_EQ(hm.windows_failed(), 2u);
}

TEST(health_monitor, alarm_hook_fires_once_on_the_rising_edge)
{
    core::health_monitor hm(fast_cfg(), 0.01, {.fail_threshold = 2,
                                               .window = 8});
    std::vector<core::alarm_event> events;
    hm.on_alarm([&](const core::alarm_event& ev) {
        events.push_back(ev);
    });
    trng::stuck_source bad(false);
    for (int w = 0; w < 4; ++w) {
        (void)hm.observe(bad);
    }
    // The edge, not the level: one event, at the window that crossed
    // the threshold, carrying the evidence count.
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].window_index, 1u);
    EXPECT_EQ(events[0].recent_failures, 2u);
}

TEST(health_monitor, healthy_source_rarely_alarms)
{
    core::health_monitor hm(fast_cfg(), 0.01, {.fail_threshold = 3,
                                               .window = 8});
    trng::ideal_source src(31415);
    for (unsigned w = 0; w < 100; ++w) {
        (void)hm.observe(src);
    }
    EXPECT_FALSE(hm.alarm())
        << "3-in-8 coincidental failures at ~8% window failure rate is "
           "very unlikely";
}

TEST(health_monitor, tracks_failures_by_test)
{
    core::health_monitor hm(fast_cfg(), 0.01, {.fail_threshold = 2,
                                               .window = 4});
    trng::markov_source src(12, 0.65);
    for (unsigned w = 0; w < 5; ++w) {
        (void)hm.observe(src);
    }
    EXPECT_TRUE(hm.alarm());
    EXPECT_GT(hm.failures_by_test().count("runs"), 0u);
}

TEST(health_monitor, rejects_bad_policy)
{
    EXPECT_THROW(core::health_monitor(fast_cfg(), 0.01,
                                      {.fail_threshold = 0, .window = 4}),
                 std::invalid_argument);
    EXPECT_THROW(core::health_monitor(fast_cfg(), 0.01,
                                      {.fail_threshold = 9, .window = 4}),
                 std::invalid_argument);
}

} // namespace
