// Tests of the multi-channel fleet monitor: determinism across thread
// counts and ingestion lanes, telemetry aggregation, per-channel alarm
// policy, configuration validation, and the unit pool that fleet and
// population runs share.
#include "core/design_config.hpp"
#include "core/fleet_monitor.hpp"
#include "trng/sources.hpp"

#include "support/fixed_seed.hpp"

#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace otf;
using test::fixture_seed;

hw::block_config small_design()
{
    // 4096-bit all-tests design: full engine coverage, fast windows.
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

core::fleet_config
base_config(unsigned channels, unsigned threads,
            core::ingest_lane lane = core::ingest_lane::span)
{
    core::fleet_config cfg;
    cfg.block = small_design();
    cfg.block.double_buffered = true;
    cfg.alpha = 0.01;
    cfg.channels = channels;
    cfg.threads = threads;
    cfg.lane = lane;
    return cfg;
}

core::fleet_monitor::source_factory ideal_factory()
{
    return [](unsigned c) {
        return std::make_unique<trng::ideal_source>(fixture_seed(c));
    };
}

TEST(fleet, report_is_independent_of_thread_count)
{
    const std::uint64_t windows = 6;
    const auto baseline =
        core::fleet_monitor(base_config(6, 1)).run(ideal_factory(),
                                                   windows);
    for (const unsigned threads : {2u, 3u, 6u, 16u}) {
        const auto report = core::fleet_monitor(base_config(6, threads))
                                .run(ideal_factory(), windows);
        EXPECT_TRUE(baseline.same_counters(report))
            << "thread count " << threads
            << " changed the aggregated report";
        ASSERT_EQ(baseline.channels.size(), report.channels.size());
        for (std::size_t c = 0; c < baseline.channels.size(); ++c) {
            EXPECT_EQ(baseline.channels[c], report.channels[c])
                << "channel " << c << " at thread count " << threads;
        }
    }
}

TEST(fleet, every_ingest_lane_agrees_with_the_per_bit_oracle)
{
    const std::uint64_t windows = 4;
    const auto bit =
        core::fleet_monitor(base_config(4, 2, core::ingest_lane::per_bit))
            .run(ideal_factory(), windows);
    for (const core::ingest_lane lane :
         {core::ingest_lane::span, core::ingest_lane::sliced}) {
        const auto fast = core::fleet_monitor(base_config(4, 2, lane))
                              .run(ideal_factory(), windows);
        EXPECT_TRUE(fast.same_counters(bit));
        ASSERT_EQ(fast.channels.size(), bit.channels.size());
        for (std::size_t c = 0; c < fast.channels.size(); ++c) {
            EXPECT_EQ(fast.channels[c], bit.channels[c])
                << "channel " << c;
        }
    }
}

TEST(fleet, totals_aggregate_the_channels)
{
    const std::uint64_t windows = 3;
    const auto report = core::fleet_monitor(base_config(5, 2))
                            .run(ideal_factory(), windows);
    ASSERT_EQ(report.channels.size(), 5u);
    std::uint64_t windows_sum = 0;
    std::uint64_t failures_sum = 0;
    std::uint64_t bits_sum = 0;
    unsigned alarms = 0;
    for (const auto& ch : report.channels) {
        EXPECT_EQ(ch.windows, windows);
        EXPECT_EQ(ch.bits, windows * small_design().n());
        EXPECT_GT(ch.sw_cycles, 0u);
        EXPECT_LE(ch.worst_sw_cycles, ch.sw_cycles);
        windows_sum += ch.windows;
        failures_sum += ch.failures;
        bits_sum += ch.bits;
        alarms += ch.alarm ? 1 : 0;
    }
    EXPECT_EQ(report.windows, windows_sum);
    EXPECT_EQ(report.failures, failures_sum);
    EXPECT_EQ(report.bits, bits_sum);
    EXPECT_EQ(report.channels_in_alarm, alarms);
    EXPECT_GT(report.seconds, 0.0);
    EXPECT_GT(report.bits_per_second(), 0.0);
}

TEST(fleet, degraded_channel_raises_only_its_own_alarm)
{
    auto cfg = base_config(3, 2);
    cfg.fail_threshold = 3;
    cfg.policy_window = 8;
    const auto factory =
        [](unsigned c) -> std::unique_ptr<trng::entropy_source> {
        if (c == 1) {
            return std::make_unique<trng::stuck_source>(true);
        }
        return std::make_unique<trng::ideal_source>(fixture_seed(c));
    };
    const auto report =
        core::fleet_monitor(cfg).run(factory, 8);
    EXPECT_FALSE(report.channels[0].alarm);
    EXPECT_TRUE(report.channels[1].alarm);
    EXPECT_FALSE(report.channels[2].alarm);
    EXPECT_EQ(report.channels_in_alarm, 1u);
    EXPECT_EQ(report.channels[1].failures, 8u);
    EXPECT_FALSE(report.channels[1].failures_by_test.empty());
    EXPECT_EQ(report.channels[1].source_name, "stuck-at-1");
}

TEST(fleet, channel_reports_keep_channel_order)
{
    const auto report = core::fleet_monitor(base_config(4, 4))
                            .run(ideal_factory(), 2);
    for (std::size_t c = 0; c < report.channels.size(); ++c) {
        EXPECT_EQ(report.channels[c].channel, c);
    }
}

TEST(fleet, zero_windows_returns_an_empty_report)
{
    // windows_per_channel == 0 must come back immediately with zeroed
    // channels -- it must not be mistaken for an open-ended run.
    const auto report =
        core::fleet_monitor(base_config(3, 2)).run(ideal_factory(), 0);
    EXPECT_EQ(report.windows, 0u);
    EXPECT_EQ(report.bits, 0u);
    ASSERT_EQ(report.channels.size(), 3u);
    for (const auto& ch : report.channels) {
        EXPECT_EQ(ch.windows, 0u);
        EXPECT_FALSE(ch.alarm);
    }
}

TEST(fleet, sub_word_designs_fall_back_to_the_batch_loop)
{
    // n < 64 cannot be packed into 64-bit words; the per-bit lane must
    // keep working one bit per clock (and agree with a plain monitor
    // run).
    hw::block_config tiny;
    tiny.name = "tiny n=32";
    tiny.log2_n = 5;
    tiny.tests = hw::test_set{}
                     .with(hw::test_id::frequency)
                     .with(hw::test_id::cumulative_sums);
    core::fleet_config cfg;
    cfg.block = tiny;
    cfg.channels = 2;
    cfg.threads = 1;
    cfg.lane = core::ingest_lane::per_bit;
    const auto report =
        core::fleet_monitor(cfg).run(ideal_factory(), 4);
    ASSERT_EQ(report.channels.size(), 2u);
    EXPECT_EQ(report.windows, 8u);
    EXPECT_EQ(report.bits, 8u * 32u);

    core::monitor ref(tiny, cfg.alpha);
    trng::ideal_source ref_src(fixture_seed(0));
    std::uint64_t ref_failures = 0;
    for (int w = 0; w < 4; ++w) {
        ref_failures +=
            ref.test_window(ref_src).software.all_pass ? 0 : 1;
    }
    EXPECT_EQ(report.channels[0].failures, ref_failures);
}

TEST(fleet, first_alarm_window_is_stamped_alike_by_batch_and_stream)
{
    // The sub-word per-bit branch of the window loop skips the packed
    // words, but both branches take their window numbering from the
    // monitor's own counter through the shared observe() path -- so a
    // channel failing from the first window must stamp the same 0-based
    // first_alarm_window whether it rode the n=32 per-bit branch or the
    // n=4096 packed span lane.  Pin both against the policy replayed by
    // hand.
    hw::block_config tiny;
    tiny.name = "tiny n=32";
    tiny.log2_n = 5;
    tiny.tests = hw::test_set{}
                     .with(hw::test_id::frequency)
                     .with(hw::test_id::cumulative_sums);
    core::fleet_config tiny_cfg;
    tiny_cfg.block = tiny;
    tiny_cfg.alpha = 0.01;
    tiny_cfg.channels = 2;
    tiny_cfg.threads = 1;
    tiny_cfg.lane = core::ingest_lane::per_bit;
    tiny_cfg.fail_threshold = 2;
    tiny_cfg.policy_window = 8;
    const std::uint64_t windows = 6;
    const auto factory =
        [](unsigned c) -> std::unique_ptr<trng::entropy_source> {
        if (c == 0) {
            return std::make_unique<trng::stuck_source>(true);
        }
        return std::make_unique<trng::ideal_source>(fixture_seed(c));
    };

    // Reference: replay the k-of-w policy over a plain monitor's verdicts.
    core::monitor ref(tiny, tiny_cfg.alpha);
    trng::stuck_source ref_src(true);
    core::windowed_alarm policy(tiny_cfg.fail_threshold,
                                tiny_cfg.policy_window);
    std::uint64_t want = windows; // never-alarmed sentinel
    for (std::uint64_t w = 0; w < windows; ++w) {
        policy.record(!ref.test_window(ref_src).software.all_pass);
        if (policy.rose()) {
            want = w;
        }
    }
    ASSERT_LT(want, windows) << "a stuck source must trip 2-of-8";

    const auto batch = core::fleet_monitor(tiny_cfg).run(factory, windows);
    EXPECT_TRUE(batch.channels[0].alarm);
    EXPECT_EQ(batch.channels[0].first_alarm_window, want);
    EXPECT_FALSE(batch.channels[1].alarm);
    EXPECT_EQ(batch.channels[1].first_alarm_window, windows)
        << "never-alarmed sentinel on the batch lane";

    auto packed_cfg = base_config(2, 1);
    packed_cfg.fail_threshold = tiny_cfg.fail_threshold;
    packed_cfg.policy_window = tiny_cfg.policy_window;
    const auto packed =
        core::fleet_monitor(packed_cfg).run(factory, windows);
    EXPECT_TRUE(packed.channels[0].alarm);
    EXPECT_EQ(packed.channels[0].first_alarm_window, want)
        << "the packed lane numbers windows differently";
}

TEST(fleet, configuration_is_validated)
{
    EXPECT_THROW(core::fleet_monitor{base_config(0, 1)},
                 std::invalid_argument);
    auto bad_policy = base_config(2, 1);
    bad_policy.fail_threshold = 0;
    EXPECT_THROW(core::fleet_monitor{bad_policy}, std::invalid_argument);
    bad_policy = base_config(2, 1);
    bad_policy.fail_threshold = 9;
    bad_policy.policy_window = 8;
    EXPECT_THROW(core::fleet_monitor{bad_policy}, std::invalid_argument);
}

TEST(fleet, worker_exception_propagates_naming_the_channel)
{
    // A replay source that runs dry mid-run starves the channel's window
    // loop; the failure must cross the worker pool and the fleet
    // barrier, still naming the offending channel and its source.
    const auto factory =
        [](unsigned c) -> std::unique_ptr<trng::entropy_source> {
        if (c == 1) {
            return std::make_unique<trng::replay_source>(
                bit_sequence(1024, false)); // far less than one window
        }
        return std::make_unique<trng::ideal_source>(fixture_seed(c));
    };
    core::fleet_monitor fleet(base_config(3, 1));
    try {
        (void)fleet.run(factory, 1);
        FAIL() << "expected the replay exhaustion to propagate";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("channel 1"), std::string::npos) << what;
        EXPECT_NE(what.find("replay"), std::string::npos) << what;
    }
}

TEST(fleet, mid_run_exception_from_a_late_channel_drains_the_fleet)
{
    // The dry channel sits last and runs dry only after several good
    // windows; every worker must drain and join before the rethrow, and
    // the error must name the right channel even with several threads
    // racing.
    const std::uint64_t windows = 6;
    const std::uint64_t n = small_design().n();
    const auto factory =
        [&](unsigned c) -> std::unique_ptr<trng::entropy_source> {
        if (c == 3) {
            trng::ideal_source gen(fixture_seed(99));
            // Three full windows, then mid-window starvation.
            return std::make_unique<trng::replay_source>(
                gen.generate(3 * n + 128));
        }
        return std::make_unique<trng::ideal_source>(fixture_seed(c));
    };
    core::fleet_monitor fleet(base_config(4, 2));
    try {
        (void)fleet.run(factory, windows);
        FAIL() << "expected the mid-run starvation to propagate";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("channel 3"), std::string::npos) << what;
        EXPECT_NE(what.find("ran dry"), std::string::npos) << what;
    }
}

TEST(fleet, null_source_factory_result_names_the_channel)
{
    const auto factory =
        [](unsigned c) -> std::unique_ptr<trng::entropy_source> {
        if (c == 2) {
            return nullptr;
        }
        return std::make_unique<trng::ideal_source>(fixture_seed(c));
    };
    core::fleet_monitor fleet(base_config(4, 2));
    try {
        (void)fleet.run(factory, 1);
        FAIL() << "expected the null source to be rejected";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("channel 2"),
                  std::string::npos)
            << e.what();
    }
}

// ------------------------------------- fast lanes vs per-bit oracle --

TEST(fleet, span_lane_matches_the_per_bit_oracle_at_every_thread_count)
{
    // The span lane (generate + test inline on the worker) must be
    // indistinguishable from the per-bit oracle in every deterministic
    // report field, at every thread count.
    const std::uint64_t windows = 4;
    const auto oracle =
        core::fleet_monitor(base_config(4, 1, core::ingest_lane::per_bit))
            .run(ideal_factory(), windows);
    for (const unsigned threads : {1u, 2u, 4u}) {
        auto cfg = base_config(4, threads);
        const auto report =
            core::fleet_monitor(cfg).run(ideal_factory(), windows);
        const std::string ctx = "lane " + cfg.lane_description()
            + " threads " + std::to_string(threads);
        EXPECT_TRUE(report.same_counters(oracle)) << ctx;
        ASSERT_EQ(report.channels.size(), oracle.channels.size());
        for (std::size_t c = 0; c < report.channels.size(); ++c) {
            EXPECT_EQ(report.channels[c], oracle.channels[c])
                << ctx << " channel " << c;
        }
    }
}

TEST(fleet, fused_tile_lane_matches_the_per_bit_oracle)
{
    // 66 channels: one full 64-wide group riding the 64x64 tile
    // pipeline (fill_tile -> one transpose per tile -> feed_tile) plus
    // two span leftovers; the per-bit lane is the oracle.  Both must
    // produce byte-identical channel reports at every thread count.
    const unsigned channels = 66;
    const std::uint64_t windows = 4;
    const auto design = core::custom_design(
        10, hw::test_set{}
                .with(hw::test_id::frequency)
                .with(hw::test_id::runs));
    const auto make_cfg = [&](core::ingest_lane lane, unsigned threads) {
        core::fleet_config cfg;
        cfg.block = design;
        cfg.alpha = 0.01;
        cfg.channels = channels;
        cfg.threads = threads;
        cfg.lane = lane;
        return cfg;
    };
    const auto oracle =
        core::fleet_monitor(make_cfg(core::ingest_lane::per_bit, 2))
            .run(ideal_factory(), windows);
    // The sliced lane reports sw_cycles on its own scale (one sliced
    // pass covers 64 channels), so the byte-identity guarantee covers
    // every field except the two cycle counters.
    const auto strip_cycles = [](core::channel_report ch) {
        ch.sw_cycles = 0;
        ch.worst_sw_cycles = 0;
        return ch;
    };
    for (const unsigned threads : {1u, 2u, 4u}) {
        auto fused = make_cfg(core::ingest_lane::sliced, threads);
        ASSERT_TRUE(fused.uses_sliced_lane());
        EXPECT_EQ(fused.lane_description(), "sliced+span");
        const auto report =
            core::fleet_monitor(fused).run(ideal_factory(), windows);
        const std::string ctx =
            report.lane + " threads " + std::to_string(threads);
        EXPECT_EQ(report.windows, oracle.windows) << ctx;
        EXPECT_EQ(report.failures, oracle.failures) << ctx;
        EXPECT_EQ(report.bits, oracle.bits) << ctx;
        EXPECT_EQ(report.channels_in_alarm, oracle.channels_in_alarm)
            << ctx;
        EXPECT_EQ(report.failures_by_test, oracle.failures_by_test)
            << ctx;
        ASSERT_EQ(report.channels.size(), oracle.channels.size());
        for (std::size_t c = 0; c < report.channels.size(); ++c) {
            EXPECT_EQ(strip_cycles(report.channels[c]),
                      strip_cycles(oracle.channels[c]))
                << ctx << " channel " << c;
        }
    }
}

TEST(fleet, lane_metadata_is_reported)
{
    // The report must say which ingest lane actually ran and how many
    // worker threads were spawned -- in particular the sliced->span
    // fallback that used to be silent.
    const std::uint64_t windows = 2;
    auto cfg = base_config(3, 2);
    const auto fused =
        core::fleet_monitor(cfg).run(ideal_factory(), windows);
    EXPECT_EQ(fused.lane, "span");
    EXPECT_EQ(fused.worker_threads, 2u);

    const auto fallback = base_config(3, 1, core::ingest_lane::sliced);
    const auto degraded =
        core::fleet_monitor(fallback).run(ideal_factory(), windows);
    EXPECT_EQ(degraded.lane, "span (sliced fallback)")
        << "too few channels for a tile group must be visible";
}

// ------------------------------------------- per-channel supervision --

core::fleet_config supervised_config(unsigned channels, unsigned threads)
{
    core::fleet_config cfg;
    cfg.block = core::paper_design(7, core::tier::light);
    cfg.alpha = 0.001;
    cfg.channels = channels;
    cfg.threads = threads;
    cfg.fail_threshold = 2;
    cfg.policy_window = 4;
    cfg.escalated_block = core::paper_design(7, core::tier::medium);
    cfg.evidence_windows = 4;
    cfg.dwell_windows = 1000; // stay escalated once triggered
    return cfg;
}

core::fleet_monitor::source_factory one_bad_channel(unsigned bad)
{
    return [bad](unsigned c) -> std::unique_ptr<trng::entropy_source> {
        if (c == bad) {
            return std::make_unique<trng::biased_source>(fixture_seed(c),
                                                         0.95);
        }
        return std::make_unique<trng::ideal_source>(fixture_seed(c));
    };
}

TEST(fleet_supervision, only_the_attacked_channel_escalates)
{
    core::fleet_monitor fleet(supervised_config(3, 2));
    const auto report = fleet.run(one_bad_channel(2), 24);

    EXPECT_EQ(report.channels_escalated, 1u);
    EXPECT_EQ(report.escalations, 1u);
    for (const core::channel_report& ch : report.channels) {
        if (ch.channel == 2) {
            EXPECT_EQ(ch.escalations, 1u);
            EXPECT_EQ(ch.confirmed_escalations, 1u)
                << "the offline battery must confirm a 95%-ones stream";
            EXPECT_GT(ch.windows_escalated, 0u);
            EXPECT_TRUE(ch.alarm);
            EXPECT_LT(ch.first_alarm_window, 4u);
        } else {
            EXPECT_EQ(ch.escalations, 0u) << "channel " << ch.channel;
            EXPECT_EQ(ch.windows_escalated, 0u);
            EXPECT_EQ(ch.first_alarm_window, ch.windows)
                << "never-alarmed sentinel";
        }
    }
}

TEST(fleet_supervision, report_is_independent_of_thread_count)
{
    const auto run_with = [](unsigned threads) {
        core::fleet_monitor fleet(supervised_config(4, threads));
        return fleet.run(one_bad_channel(1), 16);
    };
    const auto serial = run_with(1);
    const auto parallel = run_with(4);
    EXPECT_TRUE(serial.same_counters(parallel));
    ASSERT_EQ(serial.channels.size(), parallel.channels.size());
    for (std::size_t c = 0; c < serial.channels.size(); ++c) {
        EXPECT_EQ(serial.channels[c], parallel.channels[c])
            << "channel " << c;
    }
}

TEST(fleet_supervision, escalated_channels_account_mixed_window_bits)
{
    core::fleet_config cfg = supervised_config(2, 2);
    // Escalate to a 4x longer window so the bit accounting must mix.
    cfg.escalated_block = core::custom_design(
        9, hw::test_set{}
               .with(hw::test_id::frequency)
               .with(hw::test_id::runs)
               .with(hw::test_id::cumulative_sums));
    core::fleet_monitor fleet(cfg);
    const auto report = fleet.run(one_bad_channel(0), 20);

    const core::channel_report& bad = report.channels[0];
    ASSERT_GT(bad.escalations, 0u);
    EXPECT_EQ(bad.bits,
              (bad.windows - bad.windows_escalated) * 128u
                  + bad.windows_escalated * 512u);
    const core::channel_report& good = report.channels[1];
    EXPECT_EQ(good.bits, good.windows * 128u);
}

TEST(fleet_supervision, sub_word_baseline_is_rejected)
{
    core::fleet_config cfg = supervised_config(2, 1);
    cfg.block.log2_n = 5; // n = 32: not streamable, cannot supervise
    EXPECT_THROW(core::fleet_monitor{cfg}, std::invalid_argument);
}

TEST(fleet_supervision, mixed_outcomes_aggregate_channel_by_channel)
{
    // Escalated-but-unconfirmed is a distinct outcome from confirmed and
    // from never-escalated: with the offline bar set out of reach, the
    // attacked channel still escalates online but the confirmation count
    // must stay zero, and every fleet total must equal its channel sum.
    core::fleet_config cfg = supervised_config(3, 2);
    cfg.offline_min_failures = 100; // the offline battery cannot confirm
    const auto report = core::fleet_monitor(cfg).run(one_bad_channel(1), 24);

    unsigned escalations = 0;
    unsigned confirmed = 0;
    unsigned channels_escalated = 0;
    for (const core::channel_report& ch : report.channels) {
        escalations += ch.escalations;
        confirmed += ch.confirmed_escalations;
        channels_escalated += ch.escalations > 0 ? 1 : 0;
        EXPECT_LE(ch.confirmed_escalations, ch.escalations)
            << "channel " << ch.channel;
    }
    EXPECT_EQ(report.escalations, escalations);
    EXPECT_EQ(report.confirmed_escalations, confirmed);
    EXPECT_EQ(report.channels_escalated, channels_escalated);

    EXPECT_GT(report.channels[1].escalations, 0u)
        << "the attacked channel must still escalate online";
    EXPECT_EQ(report.channels[1].confirmed_escalations, 0u)
        << "an unreachable offline bar must never confirm";
    EXPECT_EQ(report.confirmed_escalations, 0u);
    EXPECT_EQ(report.channels_escalated, 1u);
    for (const unsigned good : {0u, 2u}) {
        EXPECT_EQ(report.channels[good].escalations, 0u)
            << "channel " << good;
    }

    // The same fleet with the standard bar confirms: all three outcomes
    // (confirmed, unconfirmed, never-escalated) are distinguishable.
    const auto confirmed_report =
        core::fleet_monitor(supervised_config(3, 2))
            .run(one_bad_channel(1), 24);
    EXPECT_GT(confirmed_report.confirmed_escalations, 0u);
    EXPECT_EQ(confirmed_report.escalations, report.escalations)
        << "the offline bar must not change the online trigger";
}

TEST(fleet_supervision, span_and_per_bit_lanes_agree)
{
    // Supervision re-programs a channel mid-run (baseline -> escalated
    // design) at the window loop's barrier, so the reframe must land on
    // exactly the same window on the span lane and on the per-bit
    // oracle, channel for channel.
    auto cfg = supervised_config(3, 2);
    const auto span =
        core::fleet_monitor(cfg).run(one_bad_channel(2), 24);
    cfg.lane = core::ingest_lane::per_bit;
    const auto per_bit =
        core::fleet_monitor(cfg).run(one_bad_channel(2), 24);
    EXPECT_TRUE(span.same_counters(per_bit));
    ASSERT_EQ(span.channels.size(), per_bit.channels.size());
    for (std::size_t c = 0; c < span.channels.size(); ++c) {
        EXPECT_EQ(span.channels[c], per_bit.channels[c])
            << "channel " << c;
    }
    EXPECT_GT(span.escalations, 0u)
        << "the differential run must actually cross an escalation";
}

TEST(fleet, bits_per_second_handles_a_zero_duration_run)
{
    // Smoke runs can complete in under the clock tick; the throughput
    // accessor must define that case instead of dividing by zero.
    core::fleet_report report;
    report.bits = 1u << 20;
    report.seconds = 0.0;
    EXPECT_EQ(report.bits_per_second(), 0.0);
    report.seconds = -1.0; // defensive: a clock that stepped backwards
    EXPECT_EQ(report.bits_per_second(), 0.0);
    report.seconds = 2.0;
    EXPECT_DOUBLE_EQ(report.bits_per_second(), (1u << 20) / 2.0);
}

TEST(unit_pool, unit_table_is_sliced_groups_then_single_channels)
{
    core::unit_pool pool(2);
    pool.add(0, 0, 130, true);   // two sliced groups + 2 singles
    pool.add(1, 130, 64, true);  // exactly one sliced group
    pool.add(2, 194, 10, true);  // too few for a group: 10 singles
    pool.add(3, 204, 70, false); // not sliced: 70 singles
    const std::vector<core::pool_unit>& units = pool.units();
    ASSERT_EQ(units.size(), 2u + 2u + 1u + 10u + 70u);
    const auto shard_of = [](unsigned c) {
        return c < 130 ? 0u : c < 194 ? 1u : c < 204 ? 2u : 3u;
    };
    unsigned next = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
        const core::pool_unit& u = units[i];
        EXPECT_EQ(u.first, next) << "unit " << i;
        EXPECT_EQ(u.count, i < 2 || i == 4 ? 64u : 1u) << "unit " << i;
        EXPECT_EQ(u.shard, shard_of(u.first)) << "unit " << i;
        next += u.count;
    }
    EXPECT_EQ(next, 274u);
    EXPECT_EQ(pool.workers(), 2u);
    EXPECT_EQ(core::unit_pool(1000).workers(), 1u)
        << "an empty table still runs on one worker";
}

TEST(unit_pool, every_unit_is_claimed_exactly_once)
{
    // The scheduler's correctness contract: whatever the worker count,
    // every unit is run by exactly one worker.  Each claim bumps a
    // per-unit counter; any counter != 1 is a lost or duplicated unit.
    constexpr unsigned units = 4096;
    for (const unsigned threads : {1u, 2u, 8u}) {
        core::unit_pool pool(threads);
        pool.add(0, 0, units, false);
        ASSERT_EQ(pool.workers(), threads);
        std::vector<std::atomic<unsigned>> claimed(units);
        const std::thread::id caller = std::this_thread::get_id();
        std::atomic<bool> off_caller{false};
        pool.run([&](unsigned w, const core::pool_unit& u) {
            ASSERT_LT(w, threads);
            claimed[u.first].fetch_add(1, std::memory_order_relaxed);
            if (std::this_thread::get_id() != caller) {
                off_caller.store(true, std::memory_order_relaxed);
            }
        });
        for (unsigned c = 0; c < units; ++c) {
            ASSERT_EQ(claimed[c].load(), 1u)
                << "unit " << c << " with " << threads << " workers";
        }
        EXPECT_EQ(off_caller.load(), threads != 1)
            << "one worker runs inline on the calling thread";
    }
}

TEST(unit_pool, first_exception_is_rethrown_after_every_worker_joins)
{
    constexpr unsigned units = 2000;
    core::unit_pool pool(4);
    pool.add(0, 0, units, false);
    std::atomic<unsigned> started{0};
    std::atomic<unsigned> running{0};
    try {
        pool.run([&](unsigned, const core::pool_unit& u) {
            started.fetch_add(1);
            running.fetch_add(1);
            if (u.first == 100) {
                running.fetch_sub(1);
                throw std::runtime_error("unit 100 failed");
            }
            // Slow enough that the throw and the cursor drain land long
            // before the other workers could start every unit.
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            running.fetch_sub(1);
        });
        FAIL() << "expected the unit's exception to propagate";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "unit 100 failed");
    }
    EXPECT_EQ(running.load(), 0u) << "a body outlived the rethrow";
    EXPECT_LT(started.load(), units)
        << "the cursor drains: later units never start";
}

} // namespace
