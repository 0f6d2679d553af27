#include "core/scenario.hpp"

#include "trng/sources.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace otf::core {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/// Trial-unique seed: `which` 0 is the healthy source, 1 the model stack.
std::uint64_t trial_seed(std::uint64_t base, unsigned trial, unsigned which)
{
    return base + kGolden * (std::uint64_t{trial} * 2 + which + 1);
}

/// The unsupervised fleet channel every trial runs on.
fleet_config trial_channel(hw::block_config block, const scenario_config& cfg)
{
    cfg.validate();
    fleet_config fc;
    fc.block = std::move(block);
    fc.alpha = cfg.alpha;
    fc.lane = cfg.lane;
    fc.fail_threshold = cfg.fail_threshold;
    fc.policy_window = cfg.policy_window;
    fc.validate();
    return fc;
}

} // namespace

double severity_schedule::severity_at(std::uint64_t window) const
{
    if (window < onset_window) {
        return 0.0;
    }
    switch (kind) {
    case shape::step:
        return peak;
    case shape::ramp: {
        const std::uint64_t elapsed = window - onset_window + 1;
        if (elapsed >= ramp_windows) {
            return peak;
        }
        return peak * static_cast<double>(elapsed)
            / static_cast<double>(ramp_windows);
    }
    case shape::pulse:
        return window < onset_window + duration_windows ? peak : 0.0;
    }
    throw std::logic_error("severity_schedule: invalid shape");
}

void severity_schedule::validate() const
{
    if (!(peak >= 0.0 && peak <= 1.0)) {
        throw std::invalid_argument(
            "severity_schedule: peak must be in [0, 1]");
    }
    if (kind == shape::ramp && ramp_windows == 0) {
        throw std::invalid_argument(
            "severity_schedule: ramp needs ramp_windows > 0");
    }
    if (kind == shape::pulse && duration_windows == 0) {
        throw std::invalid_argument(
            "severity_schedule: pulse needs duration_windows > 0");
    }
}

void scenario_config::validate() const
{
    if (windows == 0) {
        throw std::invalid_argument("scenario_config: need >= 1 window");
    }
    if (trials == 0) {
        throw std::invalid_argument("scenario_config: need >= 1 trial");
    }
    // The windowed_alarm constructor is the authoritative validity check
    // of the alarm policy.
    [[maybe_unused]] const windowed_alarm policy_check(fail_threshold,
                                                      policy_window);
}

scenario_runner::scenario_runner(hw::block_config block, scenario_config cfg)
    : cfg_(cfg), channel_(trial_channel(std::move(block), cfg_)),
      cv_(compute_critical_values(channel_.block, cfg_.alpha))
{
}

scenario_report scenario_runner::run(const scenario& sc) const
{
    sc.schedule.validate();
    const auto start = std::chrono::steady_clock::now();

    scenario_report rep;
    rep.scenario_name = sc.name;
    rep.design = channel_.block.name;
    rep.expect_alarm = sc.expect_alarm;
    rep.trials = cfg_.trials;
    rep.windows_per_trial = cfg_.windows;
    // The null scenario has no onset: every window counts as pre-onset
    // (its failures are the pure false-positive budget).
    rep.onset_window =
        sc.make_model ? sc.schedule.onset_window : cfg_.windows;

    std::uint64_t latency_sum = 0;
    unsigned latency_count = 0;

    // One channel for every trial: each run() starts it over.
    channel_runner runner(channel_, cv_, std::nullopt);
    for (unsigned t = 0; t < cfg_.trials; ++t) {
        std::unique_ptr<trng::entropy_source> source =
            std::make_unique<trng::ideal_source>(
                trial_seed(cfg_.seed, t, 0));
        trng::source_model* model = nullptr;
        if (sc.make_model) {
            auto stacked = sc.make_model(std::move(source),
                                         trial_seed(cfg_.seed, t, 1));
            if (!stacked) {
                throw std::invalid_argument(
                    "scenario \"" + sc.name
                    + "\": model factory returned null");
            }
            model = stacked.get();
            source = std::move(stacked);
        }
        if (t == 0) {
            rep.source = model ? model->name() : source->name();
        }

        // One trial = one fleet channel: the severity schedule steps at
        // every window boundary, and the sink only splits the verdicts
        // at the onset.
        window_hooks hooks;
        if (model) {
            hooks.before = [model, &sc](std::uint64_t w) {
                model->set_severity(sc.schedule.severity_at(w));
            };
        }
        hooks.sink = [&rep](const window_report& wr) {
            const bool failed = !wr.software.all_pass;
            if (wr.window_index < rep.onset_window) {
                ++rep.pre_onset_windows;
                rep.pre_onset_failures += failed ? 1 : 0;
            } else {
                ++rep.post_onset_windows;
                rep.post_onset_failures += failed ? 1 : 0;
            }
        };
        channel_report ch;
        try {
            ch = runner.run(*source, t, cfg_.windows, hooks);
        } catch (const std::exception& e) {
            throw std::runtime_error("scenario \"" + sc.name + "\" trial "
                                     + std::to_string(t) + ": " + e.what());
        }
        if (ch.alarm) {
            ++rep.trials_alarmed;
            if (ch.first_alarm_window < rep.onset_window) {
                ++rep.trials_false_alarmed;
            } else {
                const std::uint64_t latency =
                    ch.first_alarm_window - rep.onset_window + 1;
                latency_sum += latency;
                ++latency_count;
                rep.worst_detection_latency =
                    std::max(rep.worst_detection_latency, latency);
            }
        }
        rep.failures_by_test += ch.failures_by_test;
        rep.bits += ch.bits;
    }

    if (latency_count > 0) {
        rep.mean_detection_latency = static_cast<double>(latency_sum)
            / static_cast<double>(latency_count);
    }
    rep.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    return rep;
}

std::vector<scenario_report> scenario_runner::run_all(
    const std::vector<scenario>& scenarios) const
{
    std::vector<scenario_report> reports;
    reports.reserve(scenarios.size());
    for (const scenario& sc : scenarios) {
        reports.push_back(run(sc));
    }
    return reports;
}

std::vector<scenario> standard_scenarios(std::uint64_t onset_window,
                                         std::uint64_t ramp_windows)
{
    if (ramp_windows == 0) {
        ramp_windows = 1; // a one-window ramp degenerates to a step
    }
    using trng::entropy_source;
    using trng::source_model;
    using source_ptr = std::unique_ptr<entropy_source>;

    std::vector<scenario> lib;

    {
        scenario sc;
        sc.name = "rtn-burst";
        sc.make_model = [](source_ptr inner, std::uint64_t seed) {
            return std::make_unique<trng::rtn_source>(std::move(inner),
                                                      seed);
        };
        sc.schedule = {severity_schedule::shape::step, 1.0, onset_window,
                       0, 0};
        lib.push_back(std::move(sc));
    }
    {
        scenario sc;
        sc.name = "bias-drift";
        sc.make_model = [](source_ptr inner, std::uint64_t seed) {
            trng::bias_drift_source::parameters p;
            p.step_bits = 256; // fast wander: visible within a few windows
            p.max_shift_q = 96;
            return std::make_unique<trng::bias_drift_source>(
                std::move(inner), seed, p);
        };
        sc.schedule = {severity_schedule::shape::ramp, 1.0, onset_window,
                       ramp_windows, 0};
        lib.push_back(std::move(sc));
    }
    {
        scenario sc;
        sc.name = "osc-lockin";
        sc.make_model = [](source_ptr inner, std::uint64_t seed) {
            return std::make_unique<trng::lockin_source>(std::move(inner),
                                                         seed);
        };
        sc.schedule = {severity_schedule::shape::ramp, 0.8, onset_window,
                       ramp_windows, 0};
        lib.push_back(std::move(sc));
    }
    {
        scenario sc;
        sc.name = "stuck-dropout";
        sc.make_model = [](source_ptr inner, std::uint64_t seed) {
            return std::make_unique<trng::fault_source>(std::move(inner),
                                                        seed);
        };
        sc.schedule = {severity_schedule::shape::step, 1.0, onset_window,
                       0, 0};
        lib.push_back(std::move(sc));
    }
    {
        scenario sc;
        sc.name = "sram-collapse";
        sc.make_model = [](source_ptr inner, std::uint64_t seed) {
            trng::entropy_collapse_source::parameters p;
            p.cell_one_prob = 0.6; // low-voltage SRAM cells skew to ones
            return std::make_unique<trng::entropy_collapse_source>(
                std::move(inner), seed, p);
        };
        // The ramp is the supply voltage scaling down.
        sc.schedule = {severity_schedule::shape::ramp, 1.0, onset_window,
                       2 * ramp_windows, 0};
        lib.push_back(std::move(sc));
    }
    {
        scenario sc;
        sc.name = "substitution";
        sc.make_model = [](source_ptr inner, std::uint64_t seed) {
            return std::make_unique<trng::substitution_source>(
                std::move(inner), seed);
        };
        sc.schedule = {severity_schedule::shape::step, 1.0, onset_window,
                       0, 0};
        lib.push_back(std::move(sc));
    }
    {
        scenario sc;
        sc.name = "null";
        sc.make_model = nullptr; // healthy source, nothing injected
        sc.schedule = {severity_schedule::shape::step, 0.0, 0, 0, 0};
        sc.expect_alarm = false;
        lib.push_back(std::move(sc));
    }
    return lib;
}

} // namespace otf::core
