// Tests of the multi-channel fleet monitor: determinism across thread
// counts and ingestion lanes, telemetry aggregation, per-channel alarm
// policy, configuration validation, the caller hooks of one channel run,
// a channel runner reused device after device, and the unit pool that
// fleet and population runs share.
#include "core/design_config.hpp"
#include "core/fleet_monitor.hpp"
#include "trng/sources.hpp"

#include "support/fixed_seed.hpp"

#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <memory>
#include <optional>
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
    const auto fast =
        core::fleet_monitor(base_config(4, 2, core::ingest_lane::span))
            .run(ideal_factory(), windows);
    EXPECT_TRUE(fast.same_counters(bit));
    ASSERT_EQ(fast.channels.size(), bit.channels.size());
    for (std::size_t c = 0; c < fast.channels.size(); ++c) {
        EXPECT_EQ(fast.channels[c], bit.channels[c]) << "channel " << c;
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
    EXPECT_NE(report.channels[1].failures_by_test, hw::test_tally{});
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

TEST(fleet, sub_word_span_design_is_rejected_at_configuration)
{
    // n < 64 cannot be packed into 64-bit words: the span lane must fail
    // when the fleet is configured, naming n and the lane, instead of in
    // every channel's first window.
    hw::block_config tiny;
    tiny.name = "tiny n=32";
    tiny.log2_n = 5;
    tiny.tests = hw::test_set{}
                     .with(hw::test_id::frequency)
                     .with(hw::test_id::cumulative_sums);
    core::fleet_config cfg;
    cfg.block = tiny;
    cfg.lane = core::ingest_lane::span;
    try {
        cfg.validate();
        FAIL() << "a sub-word design on the span lane must be rejected";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("n = 32"), std::string::npos) << what;
        EXPECT_NE(what.find("span lane"), std::string::npos) << what;
    }
    EXPECT_THROW(core::fleet_monitor{cfg}, std::invalid_argument);
    cfg.lane = core::ingest_lane::per_bit;
    EXPECT_NO_THROW(cfg.validate());
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

// -------------------------------------- span lane vs per-bit oracle --

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

TEST(fleet, wide_fleet_matches_the_per_bit_oracle_at_every_thread_count)
{
    // 66 channels on the cheap frequency/runs design, more channels than
    // workers at every thread count; the per-bit lane is the oracle.
    // Both must produce byte-identical channel reports.
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
    for (const unsigned threads : {1u, 2u, 4u}) {
        const auto report =
            core::fleet_monitor(make_cfg(core::ingest_lane::span, threads))
                .run(ideal_factory(), windows);
        const std::string ctx =
            report.lane + " threads " + std::to_string(threads);
        EXPECT_TRUE(report.same_counters(oracle)) << ctx;
        ASSERT_EQ(report.channels.size(), oracle.channels.size());
        for (std::size_t c = 0; c < report.channels.size(); ++c) {
            EXPECT_EQ(report.channels[c], oracle.channels[c])
                << ctx << " channel " << c;
        }
    }
}

TEST(fleet, lane_metadata_is_reported)
{
    // The report must say which ingest lane actually ran and how many
    // worker threads were spawned.
    const std::uint64_t windows = 2;
    const auto fused =
        core::fleet_monitor(base_config(3, 2)).run(ideal_factory(), windows);
    EXPECT_EQ(fused.lane, "span");
    EXPECT_EQ(fused.worker_threads, 2u);

    const auto oracle =
        core::fleet_monitor(base_config(3, 1, core::ingest_lane::per_bit))
            .run(ideal_factory(), windows);
    EXPECT_EQ(oracle.lane, "per_bit");
    EXPECT_EQ(oracle.worker_threads, 1u);
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

// ------------------------------------------------ caller window hooks --

/// Records every caller hook call of one channel run, in call order.
struct hook_trace {
    std::vector<std::string> calls;
    std::vector<core::evidence_window> taps;

    core::window_hooks hooks()
    {
        core::window_hooks h;
        h.before = [this](std::uint64_t w) {
            calls.push_back("before " + std::to_string(w));
        };
        h.tap = [this](std::uint64_t w, const std::uint64_t* words,
                       std::size_t nwords) {
            calls.push_back("tap " + std::to_string(w));
            taps.push_back({w, {words, words + nwords}});
        };
        h.sink = [this](const core::window_report& wr) {
            calls.push_back("sink " + std::to_string(wr.window_index));
        };
        return h;
    }

    /// before(i), tap(i), sink(i) for every window i, in order.
    static std::vector<std::string> expected(std::uint64_t windows)
    {
        std::vector<std::string> out;
        for (std::uint64_t w = 0; w < windows; ++w) {
            for (const char* hook : {"before ", "tap ", "sink "}) {
                out.push_back(hook + std::to_string(w));
            }
        }
        return out;
    }
};

TEST(fleet_channel_hooks, observe_an_unsupervised_channel_without_changing_it)
{
    const core::fleet_config cfg = base_config(1, 1);
    const core::critical_values cv =
        core::compute_critical_values(cfg.block, cfg.alpha);
    const std::uint64_t windows = 5;

    trng::biased_source plain_src(fixture_seed(3), 0.52);
    const core::channel_report plain = core::run_fleet_channel(
        cfg, cv, std::nullopt, plain_src, 3, windows);

    hook_trace trace;
    trng::biased_source hooked_src(fixture_seed(3), 0.52);
    const core::channel_report hooked = core::run_fleet_channel(
        cfg, cv, std::nullopt, hooked_src, 3, windows, trace.hooks());

    EXPECT_EQ(hooked, plain);
    EXPECT_EQ(trace.calls, hook_trace::expected(windows));
    // The tap sees the raw stream, window by window.
    trng::biased_source fresh(fixture_seed(3), 0.52);
    for (const core::evidence_window& tap : trace.taps) {
        EXPECT_EQ(tap.words, fresh.generate_words(cfg.block.n() / 64))
            << "window " << tap.index;
    }
}

TEST(fleet_channel_hooks, compose_with_a_supervised_channel)
{
    // Escalate to a 4x longer window, so the tap shows where the
    // supervisor reprogrammed the block.
    core::fleet_config cfg = supervised_config(1, 1);
    cfg.escalated_block = core::custom_design(
        9, hw::test_set{}
               .with(hw::test_id::frequency)
               .with(hw::test_id::runs)
               .with(hw::test_id::cumulative_sums));
    cfg.evidence_windows = 8;
    const core::critical_values cv =
        core::compute_critical_values(cfg.block, cfg.alpha);
    const core::critical_values cv_escalated =
        core::compute_critical_values(*cfg.escalated_block, cfg.alpha);
    const std::uint64_t windows = 12;
    const auto attacked = [] {
        return trng::biased_source(fixture_seed(5), 0.95);
    };

    auto plain_src = attacked();
    const core::channel_report plain = core::run_fleet_channel(
        cfg, cv, cv_escalated, plain_src, 0, windows);
    ASSERT_GT(plain.escalations, 0u) << "the run must cross an escalation";

    hook_trace trace;
    auto hooked_src = attacked();
    const core::channel_report hooked = core::run_fleet_channel(
        cfg, cv, cv_escalated, hooked_src, 0, windows, trace.hooks());
    EXPECT_EQ(hooked, plain);
    // Every boundary index reaches `before`, the escalation boundary
    // included, ahead of that window's tap and its tallied verdicts.
    EXPECT_EQ(trace.calls, hook_trace::expected(windows));

    // Baseline windows are 2 words, escalated ones 8: the tap sees the
    // design the supervisor programmed at that window's barrier.
    std::uint64_t escalated = 0;
    for (const core::evidence_window& tap : trace.taps) {
        escalated += tap.words.size() == 8 ? 1 : 0;
        EXPECT_TRUE(tap.words.size() == 2 || tap.words.size() == 8)
            << "window " << tap.index;
    }
    EXPECT_EQ(escalated, hooked.windows_escalated);

    // The caller's tap sees exactly the words of the supervisor's own
    // evidence tap: replay the same source through a standalone
    // supervisor and compare its evidence ring.
    core::supervisor sup(cfg.supervised_config(), cv, cv_escalated);
    auto sup_src = attacked();
    const core::supervision_report sr = sup.run(sup_src, windows);
    EXPECT_EQ(sr.escalations, hooked.escalations);
    EXPECT_EQ(sr.windows_escalated, hooked.windows_escalated);
    EXPECT_EQ(sr.failures_by_test, hooked.failures_by_test);
    const core::supervisor_checkpoint cp = sup.checkpoint();
    ASSERT_EQ(cp.evidence_ring.size(), cfg.evidence_windows);
    for (const core::evidence_window& ev : cp.evidence_ring) {
        ASSERT_LT(ev.index, trace.taps.size());
        EXPECT_EQ(trace.taps[ev.index], ev) << "window " << ev.index;
    }
}

// ------------------------------------------- reused channel runners --

/// Device `device` of a small supervised population, built twice from the
/// same seed: one copy for the reused runner, one for the fresh one.
std::unique_ptr<trng::entropy_source> reuse_device(unsigned device)
{
    const std::size_t window_words = 2; // n = 128 at both tiers
    const auto trace = [&](unsigned bad_windows, unsigned good_windows,
                           std::size_t extra_words) {
        trng::biased_source bad(fixture_seed(40 + device), 0.95);
        trng::ideal_source good(fixture_seed(50 + device));
        std::vector<std::uint64_t> words =
            bad.generate_words(bad_windows * window_words);
        const std::vector<std::uint64_t> tail =
            good.generate_words(good_windows * window_words + extra_words);
        words.insert(words.end(), tail.begin(), tail.end());
        return std::make_unique<trng::replay_source>(
            bit_sequence::from_words(words, words.size() * 64));
    };
    switch (device) {
    case 0: // quiet
        return std::make_unique<trng::ideal_source>(fixture_seed(60));
    case 1: // escalates, is confirmed, de-escalates after the dwell
        return trace(6, 30, 0);
    case 2: // ends escalated
        return std::make_unique<trng::biased_source>(fixture_seed(61),
                                                     0.95);
    case 3: // runs dry inside window 8, escalated: run() throws
        return trace(8, 0, 1);
    default: // quiet after the throw, then de-escalating again
        return device == 4 ? reuse_device(0) : reuse_device(1);
    }
}

TEST(channel_runner, a_reused_runner_reports_as_a_fresh_one)
{
    core::fleet_config cfg = supervised_config(1, 1);
    cfg.dwell_windows = 3;
    const core::critical_values cv =
        core::compute_critical_values(cfg.block, cfg.alpha);
    const std::optional<core::critical_values> cv_escalated =
        core::compute_critical_values(*cfg.escalated_block, cfg.alpha);
    const std::uint64_t windows = 24;

    core::channel_runner reused(cfg, cv, cv_escalated);
    std::vector<core::channel_report> fresh_reports;
    for (unsigned d = 0; d < 6; ++d) {
        const auto reused_src = reuse_device(d);
        const auto fresh_src = reuse_device(d);
        if (d == 3) {
            EXPECT_THROW(reused.run(*reused_src, d, windows),
                         std::runtime_error);
            EXPECT_THROW(core::run_fleet_channel(cfg, cv, cv_escalated,
                                                 *fresh_src, d, windows),
                         std::runtime_error);
            continue;
        }
        const core::channel_report got = reused.run(*reused_src, d, windows);
        const core::channel_report want = core::run_fleet_channel(
            cfg, cv, cv_escalated, *fresh_src, d, windows);
        EXPECT_EQ(got, want) << "device " << d;
        fresh_reports.push_back(want);
    }
    // The sequence covers every way a device can leave the runner.
    ASSERT_EQ(fresh_reports.size(), 5u);
    EXPECT_EQ(fresh_reports[0].escalations, 0u);
    EXPECT_GT(fresh_reports[1].confirmed_escalations, 0u);
    EXPECT_GT(fresh_reports[1].de_escalations, 0u);
    EXPECT_GT(fresh_reports[2].escalations, fresh_reports[2].de_escalations)
        << "device 2 must end escalated";
}

TEST(channel_runner, a_reset_supervisor_restores_a_checkpoint)
{
    core::supervisor_config cfg = supervised_config(1, 1).supervised_config();
    trng::biased_source attacked(fixture_seed(70), 0.95);
    core::supervisor origin(cfg);
    origin.run(attacked, 6);
    ASSERT_EQ(origin.state(), core::supervision_state::escalated);
    const core::supervisor_checkpoint cp = origin.checkpoint();

    // A supervisor that ran another device, reset, takes the checkpoint
    // like a fresh one and continues alike.
    core::supervisor reused(cfg);
    trng::biased_source other(fixture_seed(71), 0.95);
    reused.run(other, 9);
    reused.reset();
    EXPECT_NO_THROW(reused.restore(cp));
    core::supervisor fresh(cfg);
    fresh.restore(cp);
    trng::ideal_source tail_a(fixture_seed(72)), tail_b(fixture_seed(72));
    reused.run(tail_a, 8);
    fresh.run(tail_b, 8);
    EXPECT_EQ(reused.checkpoint(), fresh.checkpoint());
}

TEST(channel_runner, a_reset_monitor_drops_a_half_fed_window)
{
    const hw::block_config design = core::paper_design(7, core::tier::light);
    const core::critical_values cv =
        core::compute_critical_values(design, 0.01);
    trng::ideal_source src(fixture_seed(80));
    const std::vector<std::uint64_t> words = src.generate_words(4);

    core::monitor reused(design, cv);
    reused.test_packed(words.data(), 2);
    reused.feed_packed(words.data(), 1);
    reused.reset();
    EXPECT_EQ(reused.windows_tested(), 0u);
    EXPECT_EQ(reused.lifetime_ops().total(), 0u);
    core::monitor fresh(design, cv);
    const core::window_report got = reused.test_packed(words.data() + 2, 2);
    const core::window_report want = fresh.test_packed(words.data() + 2, 2);
    EXPECT_EQ(got.window_index, want.window_index);
    EXPECT_EQ(got.sw_cycles, want.sw_cycles);
    EXPECT_EQ(got.software.all_pass, want.software.all_pass);
    EXPECT_EQ(reused.lifetime_ops().total(), fresh.lifetime_ops().total());
    ASSERT_EQ(got.software.verdicts.size(), want.software.verdicts.size());
    for (std::size_t i = 0; i < got.software.verdicts.size(); ++i) {
        EXPECT_EQ(got.software.verdicts[i].statistic,
                  want.software.verdicts[i].statistic);
    }
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

TEST(unit_pool, unit_table_is_one_unit_per_channel_in_shard_order)
{
    core::unit_pool pool(2);
    pool.add(0, 0, 130);
    pool.add(1, 130, 64);
    pool.add(2, 194, 10);
    pool.add(3, 204, 70);
    const std::vector<core::pool_unit>& units = pool.units();
    ASSERT_EQ(units.size(), 274u);
    const auto shard_of = [](unsigned c) {
        return c < 130 ? 0u : c < 194 ? 1u : c < 204 ? 2u : 3u;
    };
    for (std::size_t i = 0; i < units.size(); ++i) {
        const core::pool_unit& u = units[i];
        EXPECT_EQ(u.first, i) << "unit " << i;
        EXPECT_EQ(u.shard, shard_of(u.first)) << "unit " << i;
    }
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
        pool.add(0, 0, units);
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
    pool.add(0, 0, units);
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
