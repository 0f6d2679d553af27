// Tests of the scenario subsystem: schedule shapes, runner telemetry,
// and the detection smoke over the standard adversarial library -- every
// attack scenario must alarm on a small all-tests design and the null
// scenario must hold the configured false-alarm budget.  Parameters are
// smoke-sized (4096-bit windows); the full-size sweep lives in
// bench/scenario_matrix.cpp.
#include "core/design_config.hpp"
#include "core/scenario.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"

#include "support/fixed_seed.hpp"

#include <gtest/gtest.h>
#include <memory>
#include <stdexcept>
#include <string>

namespace {

using namespace otf;
using core::severity_schedule;

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

core::scenario_config smoke_config()
{
    core::scenario_config cfg;
    cfg.alpha = 0.001;
    cfg.fail_threshold = 3;
    cfg.policy_window = 8;
    cfg.windows = 24;
    cfg.trials = 2;
    cfg.seed = test::kCanonicalSeed;
    return cfg;
}

TEST(severity_schedule, step_ramp_and_pulse_shapes)
{
    const severity_schedule step{severity_schedule::shape::step, 0.75, 4,
                                 0, 0};
    EXPECT_DOUBLE_EQ(step.severity_at(0), 0.0);
    EXPECT_DOUBLE_EQ(step.severity_at(3), 0.0);
    EXPECT_DOUBLE_EQ(step.severity_at(4), 0.75);
    EXPECT_DOUBLE_EQ(step.severity_at(1000), 0.75);

    const severity_schedule ramp{severity_schedule::shape::ramp, 1.0, 4, 4,
                                 0};
    EXPECT_DOUBLE_EQ(ramp.severity_at(3), 0.0);
    EXPECT_DOUBLE_EQ(ramp.severity_at(4), 0.25);
    EXPECT_DOUBLE_EQ(ramp.severity_at(6), 0.75);
    EXPECT_DOUBLE_EQ(ramp.severity_at(7), 1.0);
    EXPECT_DOUBLE_EQ(ramp.severity_at(100), 1.0);

    const severity_schedule pulse{severity_schedule::shape::pulse, 1.0, 4,
                                  0, 3};
    EXPECT_DOUBLE_EQ(pulse.severity_at(3), 0.0);
    EXPECT_DOUBLE_EQ(pulse.severity_at(4), 1.0);
    EXPECT_DOUBLE_EQ(pulse.severity_at(6), 1.0);
    EXPECT_DOUBLE_EQ(pulse.severity_at(7), 0.0);
}

TEST(severity_schedule, validation)
{
    severity_schedule bad{severity_schedule::shape::step, 1.5, 0, 0, 0};
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad = {severity_schedule::shape::ramp, 1.0, 0, 0, 0};
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad = {severity_schedule::shape::pulse, 1.0, 0, 0, 0};
    EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(scenario_runner, config_is_validated)
{
    auto cfg = smoke_config();
    cfg.windows = 0;
    EXPECT_THROW(core::scenario_runner(small_design(), cfg),
                 std::invalid_argument);
    cfg = smoke_config();
    cfg.fail_threshold = 9;
    cfg.policy_window = 8;
    EXPECT_THROW(core::scenario_runner(small_design(), cfg),
                 std::invalid_argument);
}

TEST(scenario_runner, sub_word_span_design_is_rejected_at_configuration)
{
    // Trials run on fleet channels, so they inherit the fleet's check: a
    // sub-word design on the span lane fails when the runner is built,
    // not in every trial's first window.
    hw::block_config tiny;
    tiny.name = "tiny n=32";
    tiny.log2_n = 5;
    tiny.tests = hw::test_set{}
                     .with(hw::test_id::frequency)
                     .with(hw::test_id::cumulative_sums);
    auto cfg = smoke_config();
    cfg.lane = core::ingest_lane::span;
    try {
        const core::scenario_runner runner(tiny, cfg);
        FAIL() << "a sub-word design on the span lane must be rejected";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("n = 32"), std::string::npos) << what;
        EXPECT_NE(what.find("span lane"), std::string::npos) << what;
    }
    // The per-bit lane clocks sub-word windows one bit at a time.
    cfg.lane = core::ingest_lane::per_bit;
    cfg.windows = 4;
    cfg.trials = 1;
    const core::scenario_runner runner(tiny, cfg);
    const auto reports = runner.run_all(core::standard_scenarios(2, 2));
    for (const core::scenario_report& rep : reports) {
        EXPECT_EQ(rep.bits, 4u * 32u) << rep.scenario_name;
    }
}

TEST(scenario_runner, every_attack_scenario_alarms_and_null_holds)
{
    // The detection smoke of the ISSUE acceptance: on a small all-tests
    // design every attack in the standard library must alarm in every
    // trial, with zero pre-onset false alarms, and the healthy null
    // scenario must stay silent with a pre-onset window failure rate
    // inside the policy's budget.
    const core::scenario_runner runner(small_design(), smoke_config());
    const auto reports =
        runner.run_all(core::standard_scenarios(/*onset_window=*/6,
                                                /*ramp_windows=*/4));
    ASSERT_EQ(reports.size(), 7u);
    for (const core::scenario_report& rep : reports) {
        if (rep.expect_alarm) {
            EXPECT_TRUE(rep.expectation_met())
                << rep.scenario_name << ": " << rep.trials_alarmed << "/"
                << rep.trials << " trials alarmed";
            EXPECT_TRUE(rep.detected()) << rep.scenario_name;
            EXPECT_EQ(rep.trials_false_alarmed, 0u) << rep.scenario_name;
            EXPECT_GE(rep.mean_detection_latency, 1.0) << rep.scenario_name;
            EXPECT_GE(rep.worst_detection_latency,
                      static_cast<std::uint64_t>(runner.runner_config()
                                                     .fail_threshold))
                << rep.scenario_name
                << ": a k-of-w alarm needs at least k windows";
            EXPECT_NE(rep.failures_by_test, hw::test_tally{})
                << rep.scenario_name;
        } else {
            EXPECT_EQ(rep.scenario_name, "null");
            EXPECT_TRUE(rep.expectation_met())
                << "null scenario raised an alarm";
            EXPECT_EQ(rep.trials_alarmed, 0u);
            // All windows are pre-onset for the null scenario.  The
            // nominal rate is 9 tests x alpha = 0.9%; at n = 4096 the
            // integer-bound approximations are conservative (~3.5%
            // measured), so the budget is the policy's working margin,
            // not the asymptotic rate.
            EXPECT_EQ(rep.pre_onset_windows,
                      rep.windows_per_trial * rep.trials);
            EXPECT_LE(rep.false_alarm_rate(), 0.15);
        }
    }
}

TEST(scenario_runner, fast_lanes_agree_with_the_per_bit_oracle)
{
    auto cfg = smoke_config();
    cfg.windows = 10;
    cfg.trials = 1;
    auto scenarios = core::standard_scenarios(2, 2);
    const core::scenario_runner word_runner(small_design(), cfg);
    cfg.lane = core::ingest_lane::per_bit;
    const core::scenario_runner bit_runner(small_design(), cfg);
    cfg.lane = core::ingest_lane::span;
    const core::scenario_runner span_runner(small_design(), cfg);
    for (const core::scenario& sc : scenarios) {
        const auto b = bit_runner.run(sc);
        for (const core::scenario_runner* fast :
             {&word_runner, &span_runner}) {
            const auto w = fast->run(sc);
            EXPECT_EQ(w.trials_alarmed, b.trials_alarmed) << sc.name;
            EXPECT_EQ(w.pre_onset_failures, b.pre_onset_failures)
                << sc.name;
            EXPECT_EQ(w.post_onset_failures, b.post_onset_failures)
                << sc.name;
            EXPECT_EQ(w.failures_by_test, b.failures_by_test) << sc.name;
            EXPECT_EQ(w.mean_detection_latency, b.mean_detection_latency)
                << sc.name;
        }
    }
}

TEST(scenario_runner, null_model_factory_reports_scenario_name)
{
    const core::scenario_runner runner(small_design(), smoke_config());
    core::scenario broken;
    broken.name = "broken";
    broken.make_model = [](std::unique_ptr<trng::entropy_source>,
                           std::uint64_t) {
        return std::unique_ptr<trng::source_model>{};
    };
    try {
        (void)runner.run(broken);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("broken"), std::string::npos);
    }
}

TEST(scenario_runner, trial_errors_name_the_scenario_and_trial)
{
    // A source failure inside a trial must say which scenario and trial
    // failed, not surface as a bare source error.
    const core::scenario_runner runner(small_design(), smoke_config());
    core::scenario sc;
    sc.name = "short-trace";
    sc.make_model = [](std::unique_ptr<trng::entropy_source>,
                       std::uint64_t seed) {
        // Two windows of recorded trace for a 24-window trial.
        trng::ideal_source gen(seed);
        return std::make_unique<trng::rtn_source>(
            std::make_unique<trng::replay_source>(
                gen.generate(2 * small_design().n())),
            seed);
    };
    try {
        (void)runner.run(sc);
        FAIL() << "expected the short trace to fail the trial";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("scenario \"short-trace\" trial 0: ", 0), 0u)
            << what;
    }
}

TEST(scenario_runner, pulse_attack_is_still_detected)
{
    // A transient pulse long enough for the policy must latch the sticky
    // alarm even though the source recovers afterwards.
    auto cfg = smoke_config();
    const core::scenario_runner runner(small_design(), cfg);
    core::scenario sc;
    sc.name = "rtn-pulse";
    sc.make_model = [](std::unique_ptr<trng::entropy_source> inner,
                       std::uint64_t seed) {
        return std::make_unique<trng::rtn_source>(std::move(inner), seed);
    };
    sc.schedule = {severity_schedule::shape::pulse, 1.0, 6, 0, 6};
    const auto rep = runner.run(sc);
    EXPECT_TRUE(rep.expectation_met()) << rep.trials_alarmed;
    EXPECT_LE(rep.worst_detection_latency, 6u)
        << "the alarm must latch inside the pulse";
}

} // namespace
