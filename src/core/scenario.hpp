// Declarative attack/degradation scenarios and the runner that measures
// how well a design point detects them.
//
// A scenario is "what happens to the source and when": a source-model
// stack (trng/source_model.hpp) built over a healthy source, a severity
// schedule (onset window, shape, peak), and the expected verdict.  The
// runner executes the scenario against a `monitor` with the AIS-31-style
// k-of-w alarm policy and reports detection latency, false alarms and
// per-test failure attribution -- the platform's operating
// characteristics, measured instead of assumed.  Each trial is one
// monitored channel (core::channel_runner): the severity schedule is
// the boundary hook, stepped once per window, the channel report carries
// the alarm and its first window, and the window sink splits the
// verdicts at the onset.  `standard_scenarios()`
// is the library of the six adversarial models plus the healthy null
// scenario; `bench/scenario_matrix.cpp` sweeps it across the eight paper
// designs into BENCH_scenarios.json (schema: docs/BENCHMARKS.md; model
// physics: docs/SCENARIOS.md).
#pragma once

#include "core/critical_values.hpp"
#include "core/fleet_monitor.hpp"
#include "core/monitor.hpp"
#include "trng/source_model.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace otf::core {

/// \brief Severity as a function of the window index: nothing before
/// `onset_window`, then a step, linear ramp or finite pulse to `peak`.
struct severity_schedule {
    enum class shape {
        step, ///< 0 before onset, `peak` from onset on
        ramp, ///< linear rise to `peak` over `ramp_windows` windows
        pulse ///< `peak` for `duration_windows` windows, then back to 0
    };

    shape kind = shape::step;
    double peak = 1.0;
    std::uint64_t onset_window = 0;
    std::uint64_t ramp_windows = 0;     ///< rise time (shape::ramp)
    std::uint64_t duration_windows = 0; ///< pulse length (shape::pulse)

    /// Severity the model should run at during window `window`.
    double severity_at(std::uint64_t window) const;

    /// \throws std::invalid_argument for peak outside [0, 1] or a
    /// zero-length ramp/pulse with the matching shape
    void validate() const;
};

/// Builds the model stack of a scenario over the healthy inner source;
/// called once per trial with a trial-unique model seed.
using model_factory =
    std::function<std::unique_ptr<trng::source_model>(
        std::unique_ptr<trng::entropy_source> inner, std::uint64_t seed)>;

/// \brief One declarative scenario: name, model stack, schedule, expected
/// verdict.  A null `make_model` is the healthy (null) scenario.
struct scenario {
    std::string name;
    model_factory make_model;
    severity_schedule schedule;
    /// Expected verdict: true = the alarm must rise (an attack scenario),
    /// false = it must stay silent (the null scenario).
    bool expect_alarm = true;
};

/// \brief Runner parameters shared by every scenario of a sweep.
struct scenario_config {
    /// Per-test level of significance.  The default is stricter than the
    /// single-window default (0.01) because supervision multiplies the
    /// per-window type-1 rate by the test count and the policy window.
    double alpha = 0.001;
    /// AIS-31-style alarm policy: `fail_threshold` failed windows among
    /// the last `policy_window` raise the (sticky) alarm.
    unsigned fail_threshold = 3;
    unsigned policy_window = 8;
    /// Windows per trial and independent trials per scenario.
    std::uint64_t windows = 64;
    unsigned trials = 3;
    /// Base seed; per-trial source/model seeds are derived from it.
    std::uint64_t seed = 0x0f1e2d3c4b5a6978ULL;
    /// Ingestion lane (span fast lane by default; the per-bit oracle lane
    /// stays selectable for equivalence runs).
    ingest_lane lane = ingest_lane::span;

    /// \throws std::invalid_argument on zero windows/trials or an
    /// inconsistent alarm policy
    void validate() const;
};

/// \brief Detection statistics of one scenario on one design point,
/// aggregated over the configured trials.  Deterministic for a fixed
/// config seed except `seconds`.
struct scenario_report {
    std::string scenario_name;
    std::string design;
    std::string source; ///< model-stack name (the healthy source's name
                        ///< for the null scenario)
    bool expect_alarm = true;
    unsigned trials = 0;
    std::uint64_t windows_per_trial = 0;
    std::uint64_t onset_window = 0; ///< first affected window (== windows_per_trial when never)

    unsigned trials_alarmed = 0;       ///< alarm rose at any point
    unsigned trials_false_alarmed = 0; ///< alarm rose before onset
    /// Detection latency in windows, counted from the onset window to the
    /// first at-or-after-onset alarm, inclusive; over detected trials.
    double mean_detection_latency = 0.0;
    std::uint64_t worst_detection_latency = 0;

    /// Per-window verdict counts split at the onset (pre-onset failures
    /// are the false-positive budget; the null scenario is all pre-onset).
    std::uint64_t pre_onset_windows = 0;
    std::uint64_t pre_onset_failures = 0;
    std::uint64_t post_onset_windows = 0;
    std::uint64_t post_onset_failures = 0;
    /// Failure attribution across all trials and windows.
    hw::test_tally failures_by_test;

    std::uint64_t bits = 0; ///< bits tested across all trials
    double seconds = 0.0;   ///< wall clock (the only nondeterministic field)

    /// At least one trial raised the alarm at or after onset.
    bool detected() const
    {
        return trials_alarmed > trials_false_alarmed;
    }
    /// Attack scenarios: every trial alarmed.  Null: no trial alarmed.
    bool expectation_met() const
    {
        return expect_alarm ? trials_alarmed == trials
                            : trials_alarmed == 0;
    }
    /// Empirical pre-onset window failure rate (type-1 proxy).
    double false_alarm_rate() const
    {
        return pre_onset_windows == 0
            ? 0.0
            : static_cast<double>(pre_onset_failures)
                / static_cast<double>(pre_onset_windows);
    }
    double bits_per_second() const
    {
        return seconds > 0.0 ? static_cast<double>(bits) / seconds : 0.0;
    }
};

/// \brief Executes scenarios against one design point.  Critical values
/// are inverted once per runner and shared by every scenario and trial;
/// each trial is one run of the core::channel_runner that serves all of a
/// scenario's trials.
class scenario_runner {
public:
    /// \throws std::invalid_argument on an invalid block or config,
    /// including a sub-word design (n < 64) on the span lane
    scenario_runner(hw::block_config block, scenario_config cfg);

    const hw::block_config& config() const { return channel_.block; }
    const scenario_config& runner_config() const { return cfg_; }
    const critical_values& bounds() const { return cv_; }

    /// \brief Run one scenario for the configured trials and aggregate.
    /// \throws std::invalid_argument on an invalid schedule
    /// \throws std::runtime_error naming the scenario and trial when a
    /// trial fails (e.g. its source runs dry)
    scenario_report run(const scenario& sc) const;

    /// Run every scenario in order (one report per scenario).
    std::vector<scenario_report> run_all(
        const std::vector<scenario>& scenarios) const;

private:
    scenario_config cfg_;
    fleet_config channel_; ///< the channel every trial runs
    critical_values cv_;
};

/// \brief The standard adversarial library: the six source models plus
/// the healthy null scenario, with paper-motivated parameters
/// (docs/SCENARIOS.md documents each entry).
/// \param onset_window first attacked window of every scenario
/// \param ramp_windows rise time of the ramp-shaped schedules
std::vector<scenario> standard_scenarios(std::uint64_t onset_window = 8,
                                         std::uint64_t ramp_windows = 8);

} // namespace otf::core
