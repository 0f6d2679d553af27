// Escalation bench: the adaptive supervisor against the standard
// adversarial library, with machine-readable detection/overhead
// telemetry.
//
//   $ ./bench_escalation               # full run (48 windows x 3 trials)
//   $ OTF_SMOKE=1 ./bench_escalation   # ctest / verify.sh smoke entry
//   $ ./bench_escalation --scenario=substitution --bench-dir=/tmp
//
// The supervisor runs every standard scenario at the cheap always-on
// baseline (n=65536 light, 5 tests) and must escalate the live testing
// block to the heavy design (n=65536 high, 9 tests) through the register
// map on each attack, confirm the captured evidence offline through the
// SP 800-22 battery, and stay at the baseline on the healthy null
// scenario.  A separate timing pass measures the supervision overhead on
// a healthy stream against the bare window loop.
//
// Results go to BENCH_escalation.json (schema "otf-escalation/1", see
// docs/BENCHMARKS.md).  Exit status enforces the contract:
//   - every attack scenario escalates in every trial, pre-onset never;
//   - every escalation is offline-confirmed;
//   - the null scenario never escalates (false-escalation budget 0);
//   - baseline throughput overhead vs the un-supervised loop <= 10%
//     (full runs only; smoke proves the plumbing).
#include "base/env.hpp"
#include "base/json.hpp"
#include "core/design_config.hpp"
#include "core/scenario.hpp"
#include "core/supervisor.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"
#include "what_ran.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace otf;

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kSeed = 0x5eed0e5ca1a7e000ULL;

std::uint64_t trial_seed(unsigned trial, unsigned which)
{
    return kSeed + kGolden * (std::uint64_t{trial} * 2 + which + 1);
}

/// Aggregated escalation telemetry of one scenario over its trials.
struct scenario_result {
    std::string name;
    bool expect_escalation = true;
    unsigned trials = 0;
    unsigned trials_escalated = 0;
    unsigned trials_confirmed = 0; ///< first escalation offline-confirmed
    unsigned false_escalations = 0; ///< escalated at or before onset
    double mean_latency = 0.0;      ///< windows, onset -> escalation
    std::uint64_t worst_latency = 0;
    std::uint64_t de_escalations = 0;
    std::uint64_t windows_escalated = 0;
    unsigned battery_failed = 0; ///< failing P-values, first confirmation
    std::uint64_t bits = 0;
    double seconds = 0.0;

    bool contract_ok() const
    {
        if (!expect_escalation) {
            return trials_escalated == 0;
        }
        return trials_escalated == trials
            && trials_confirmed == trials_escalated
            && false_escalations == 0;
    }
};

double seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

} // namespace

int main(int argc, char** argv)
{
    std::string scenario_filter;
    for (int i = 1; i < argc; ++i) {
        const char key[] = "--scenario=";
        if (std::strncmp(argv[i], key, sizeof key - 1) == 0) {
            scenario_filter = argv[i] + sizeof key - 1;
        } else if (!parse_bench_dir_flag(argv[i])) {
            std::fprintf(stderr,
                         "usage: %s [--scenario=<name>] "
                         "[--bench-dir=<dir>]\n",
                         argv[0]);
            return 2;
        }
    }

    core::supervisor_config sup_cfg;
    sup_cfg.baseline = core::paper_design(16, core::tier::light);
    sup_cfg.baseline.double_buffered = true;
    sup_cfg.escalated = core::paper_design(16, core::tier::high);
    sup_cfg.escalated.double_buffered = true;
    sup_cfg.alpha = 0.001;
    sup_cfg.fail_threshold = 3;
    sup_cfg.policy_window = 8;
    sup_cfg.evidence_windows = smoke_scaled<std::size_t>(8, 4);
    sup_cfg.dwell_windows = 12;
    sup_cfg.offline_alpha = 0.01;
    sup_cfg.offline_min_failures = 2;

    const std::uint64_t windows = smoke_scaled<std::uint64_t>(48, 20);
    const unsigned trials = smoke_scaled(3u, 1u);
    const std::uint64_t onset = smoke_scaled<std::uint64_t>(8, 4);
    const std::uint64_t ramp = smoke_scaled<std::uint64_t>(8, 4);

    std::vector<core::scenario> scenarios =
        core::standard_scenarios(onset, ramp);
    if (!scenario_filter.empty()) {
        std::erase_if(scenarios, [&](const core::scenario& sc) {
            return sc.name != scenario_filter;
        });
        if (scenarios.empty()) {
            std::fprintf(stderr, "unknown scenario \"%s\"; available:\n",
                         scenario_filter.c_str());
            for (const core::scenario& sc : core::standard_scenarios()) {
                std::fprintf(stderr, "  %s\n", sc.name.c_str());
            }
            return 2;
        }
    }
    const bool filtered = !scenario_filter.empty();

    std::printf("escalation bench: baseline %s -> escalated %s\n",
                sup_cfg.baseline.name.c_str(),
                sup_cfg.escalated.name.c_str());
    std::printf("%llu windows x %u trial(s), alarm %u-of-%u at alpha "
                "%.4g, evidence %zu windows, dwell %llu, onset %llu\n\n",
                static_cast<unsigned long long>(windows), trials,
                sup_cfg.fail_threshold, sup_cfg.policy_window,
                sup_cfg.alpha, sup_cfg.evidence_windows,
                static_cast<unsigned long long>(sup_cfg.dwell_windows),
                static_cast<unsigned long long>(onset));

    // Critical values for both designs, inverted once for every
    // scenario and trial.
    const core::critical_values cv_baseline =
        core::compute_critical_values(sup_cfg.baseline, sup_cfg.alpha);
    const core::critical_values cv_escalated =
        core::compute_critical_values(sup_cfg.escalated, sup_cfg.alpha);

    std::vector<scenario_result> results;
    std::printf("%-14s %-10s %-10s %-9s %-12s %s\n", "scenario",
                "escalated", "confirmed", "latency", "de-escal.",
                "battery fails");
    for (const core::scenario& sc : scenarios) {
        const auto t0 = std::chrono::steady_clock::now();
        scenario_result res;
        res.name = sc.name;
        res.expect_escalation = sc.expect_alarm;
        res.trials = trials;

        std::uint64_t latency_sum = 0;
        unsigned latency_count = 0;
        for (unsigned t = 0; t < trials; ++t) {
            std::unique_ptr<trng::entropy_source> source =
                std::make_unique<trng::ideal_source>(trial_seed(t, 0));
            trng::source_model* model = nullptr;
            if (sc.make_model) {
                auto stacked =
                    sc.make_model(std::move(source), trial_seed(t, 1));
                model = stacked.get();
                source = std::move(stacked);
            }

            core::supervisor sup(sup_cfg, cv_baseline, cv_escalated);
            core::window_barrier schedule;
            if (model) {
                schedule = [model, &sc](std::uint64_t w) {
                    model->set_severity(sc.schedule.severity_at(w));
                };
            }
            const core::supervision_report rep =
                sup.run(*source, windows, schedule);

            res.bits += rep.bits;
            res.de_escalations += rep.de_escalations;
            res.windows_escalated += rep.windows_escalated;
            if (rep.escalations > 0) {
                ++res.trials_escalated;
                // Escalation fires at the barrier after the alarm
                // window; at or before onset means a pre-onset alarm.
                if (rep.first_escalation_window <= onset) {
                    ++res.false_escalations;
                } else {
                    const std::uint64_t latency =
                        rep.first_escalation_window - onset;
                    latency_sum += latency;
                    ++latency_count;
                    res.worst_latency =
                        std::max(res.worst_latency, latency);
                }
                // "Offline-confirmed" means *every* escalation of the
                // trial (a pulse can escalate, de-escalate and
                // re-escalate): one confirmed verdict per escalation.
                unsigned confirmed_events = 0;
                bool first_recorded = false;
                for (const core::supervision_event& ev : rep.events) {
                    if (ev.kind
                        != core::supervision_event_kind::confirmed) {
                        continue;
                    }
                    if (ev.confirmation->confirmed) {
                        ++confirmed_events;
                    }
                    if (t == 0 && !first_recorded) {
                        res.battery_failed =
                            ev.confirmation->battery.failed;
                        first_recorded = true;
                    }
                }
                if (confirmed_events == rep.escalations) {
                    ++res.trials_confirmed;
                }
            }
        }
        if (latency_count > 0) {
            res.mean_latency = static_cast<double>(latency_sum)
                / static_cast<double>(latency_count);
        }
        res.seconds = seconds_since(t0);
        results.push_back(res);

        std::string latency = "-";
        if (latency_count > 0) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.1f w", res.mean_latency);
            latency = buf;
        }
        std::printf("%-14s %u/%-8u %u/%-8u %-9s %-12llu %u\n",
                    res.name.c_str(), res.trials_escalated, res.trials,
                    res.trials_confirmed, res.trials_escalated,
                    latency.c_str(),
                    static_cast<unsigned long long>(res.de_escalations),
                    res.battery_failed);
    }

    // Supervision overhead on a healthy stream: the supervisor's
    // baseline loop (alarm policy + evidence capture + barrier checks)
    // against the bare window loop at the same design.
    // Best-of-N on interleaved measurements so scheduler noise on a
    // loaded machine cannot flip the acceptance ratio (the bar is only
    // enforced on full runs; smoke proves the plumbing).
    const std::uint64_t overhead_windows =
        smoke_scaled<std::uint64_t>(48, 8);
    const unsigned reps = smoke_scaled(5u, 1u);
    double plain_mbps = 0.0;
    double supervised_mbps = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        {
            core::monitor mon(sup_cfg.baseline, cv_baseline);
            trng::ideal_source src(2026);
            const auto t0 = std::chrono::steady_clock::now();
            core::run_windows(mon, src, overhead_windows);
            const double s = seconds_since(t0);
            plain_mbps = std::max(
                plain_mbps,
                static_cast<double>(overhead_windows
                                    * sup_cfg.baseline.n())
                    / s / 1e6);
        }
        {
            core::supervisor sup(sup_cfg, cv_baseline, cv_escalated);
            trng::ideal_source src(2026);
            const auto t0 = std::chrono::steady_clock::now();
            sup.run(src, overhead_windows);
            const double s = seconds_since(t0);
            supervised_mbps = std::max(
                supervised_mbps,
                static_cast<double>(overhead_windows
                                    * sup_cfg.baseline.n())
                    / s / 1e6);
        }
    }
    const double overhead =
        plain_mbps > 0.0 ? plain_mbps / supervised_mbps - 1.0 : 0.0;
    const bool enforce_overhead = !smoke_mode();
    std::printf("\nbaseline throughput: %.1f Mbit/s plain, %.1f Mbit/s "
                "supervised -> %.1f%% overhead%s\n",
                plain_mbps, supervised_mbps, 100.0 * overhead,
                enforce_overhead ? "" : " (smoke: not enforced)");

    bool ok = true;
    std::printf("\nsummary:\n");
    for (const scenario_result& res : results) {
        ok = ok && res.contract_ok();
        std::printf("  %-14s %s\n", res.name.c_str(),
                    res.contract_ok()
                        ? (res.expect_escalation
                               ? "escalated + confirmed in every trial"
                               : "stayed at baseline")
                        : "CONTRACT FAILED");
    }
    const bool overhead_ok = !enforce_overhead || overhead <= 0.10;
    if (!overhead_ok) {
        std::printf("  overhead       CONTRACT FAILED (%.1f%% > 10%%)\n",
                    100.0 * overhead);
    }
    ok = ok && overhead_ok;

    json_writer json;
    json.begin_object();
    json.value("schema", "otf-escalation/1");
    json.value("smoke", smoke_mode());
    write_what_ran(json);
    json.value("filtered", filtered);
    json.value("baseline", sup_cfg.baseline.name);
    json.value("escalated", sup_cfg.escalated.name);
    json.value("alpha", sup_cfg.alpha);
    json.value("fail_threshold", sup_cfg.fail_threshold);
    json.value("policy_window", sup_cfg.policy_window);
    json.value("evidence_windows",
               static_cast<std::uint64_t>(sup_cfg.evidence_windows));
    json.value("dwell_windows", sup_cfg.dwell_windows);
    json.value("offline_alpha", sup_cfg.offline_alpha);
    json.value("windows", windows);
    json.value("trials", trials);
    json.value("onset_window", onset);
    json.value("seed", kSeed);
    json.begin_array("results");
    for (const scenario_result& res : results) {
        json.begin_object();
        json.value("scenario", res.name);
        json.value("expect_escalation", res.expect_escalation);
        json.value("trials", res.trials);
        json.value("trials_escalated", res.trials_escalated);
        json.value("trials_confirmed", res.trials_confirmed);
        json.value("false_escalations", res.false_escalations);
        json.value("mean_escalation_latency_windows", res.mean_latency);
        json.value("worst_escalation_latency_windows",
                   res.worst_latency);
        json.value("de_escalations", res.de_escalations);
        json.value("windows_escalated", res.windows_escalated);
        json.value("battery_failed", res.battery_failed);
        json.value("bits", res.bits);
        json.value("seconds", res.seconds);
        json.value("contract_ok", res.contract_ok());
        json.end_object();
    }
    json.end_array();
    json.begin_object("overhead");
    json.value("windows", overhead_windows);
    json.value("plain_mbps", plain_mbps);
    json.value("supervised_mbps", supervised_mbps);
    json.value("overhead_fraction", overhead);
    json.value("enforced", enforce_overhead);
    json.end_object();
    json.value("contract_ok", ok);
    json.end_object();

    const std::string path = bench_output_path("BENCH_escalation.json");
    if (!write_bench_json(path, json)) {
        return 1;
    }
    std::printf("\nwrote %s\n", path.c_str());

    if (!ok) {
        std::printf("CONTRACT FAILED: an attack went un-escalated or "
                    "unconfirmed, the null scenario escalated, or the "
                    "supervision overhead exceeded 10%%\n");
        return 1;
    }
    return 0;
}
