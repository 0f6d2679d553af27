// Scenario matrix: the adversarial scenario library against every paper
// design point, with machine-readable detection telemetry.
//
//   $ ./bench_scenario_matrix              # full run (64 windows x 3 trials)
//   $ OTF_SMOKE=1 ./bench_scenario_matrix  # ctest / verify.sh smoke entry
//   $ ./bench_scenario_matrix --scenario=bias-drift --design="n=128 light"
//                                          # reproduce a single cell
//
// --scenario=<name> and --design=<name> restrict the sweep so one failing
// cell can be re-run without the full matrix; an unknown name prints the
// available ones and exits nonzero.  The cross-design union-detection
// contract is only enforced on the full (unfiltered) matrix -- a single
// design may legitimately miss an attack -- but the null scenario must
// stay silent in any subset.
//
// For each of the eight Table III designs the runner executes every
// standard scenario (six source models + the healthy null) and reports
// detection latency, false alarms and failure attribution.  Results are
// written to BENCH_scenarios.json (schema "otf-scenario-matrix/1", see
// docs/BENCHMARKS.md; OTF_BENCH_DIR overrides the output directory) so CI
// can archive them and future PRs can diff detection power numerically.
//
// Exit status enforces the library's contract: every attack scenario must
// be detected by at least one design, and the null scenario must never
// alarm.
#include "base/env.hpp"
#include "base/json.hpp"
#include "core/design_config.hpp"
#include "core/scenario.hpp"
#include "what_ran.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace otf;

namespace {

/// Value of `--<key>=` when `arg` matches, nullptr otherwise.
const char* option_value(const char* arg, const char* key)
{
    const std::size_t len = std::strlen(key);
    if (std::strncmp(arg, key, len) == 0 && arg[len] == '=') {
        return arg + len + 1;
    }
    return nullptr;
}

} // namespace

int main(int argc, char** argv)
{
    core::scenario_config cfg;
    cfg.alpha = 0.001;
    cfg.fail_threshold = 3;
    cfg.policy_window = 8;
    cfg.windows = smoke_scaled<std::uint64_t>(64, 12);
    cfg.trials = smoke_scaled(3u, 1u);

    const std::uint64_t onset = smoke_scaled<std::uint64_t>(8, 2);
    const std::uint64_t ramp = smoke_scaled<std::uint64_t>(8, 2);
    std::vector<core::scenario> scenarios =
        core::standard_scenarios(onset, ramp);
    std::vector<hw::block_config> designs = core::all_paper_designs();

    // --scenario=<name> / --design=<name> reproduce one failing cell
    // without the full sweep.
    std::string scenario_filter;
    std::string design_filter;
    for (int i = 1; i < argc; ++i) {
        if (const char* v = option_value(argv[i], "--scenario")) {
            scenario_filter = v;
        } else if (const char* v = option_value(argv[i], "--design")) {
            design_filter = v;
        } else if (parse_bench_dir_flag(argv[i])) {
            // output-directory override, recorded by the helper
        } else {
            std::fprintf(stderr,
                         "usage: %s [--scenario=<name>] [--design=<name>] "
                         "[--bench-dir=<dir>]\n",
                         argv[0]);
            return 2;
        }
    }
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
    if (!design_filter.empty()) {
        std::erase_if(designs, [&](const hw::block_config& d) {
            return d.name != design_filter;
        });
        if (designs.empty()) {
            std::fprintf(stderr, "unknown design \"%s\"; available:\n",
                         design_filter.c_str());
            for (const hw::block_config& d : core::all_paper_designs()) {
                std::fprintf(stderr, "  %s\n", d.name.c_str());
            }
            return 2;
        }
    }
    const bool filtered =
        !scenario_filter.empty() || !design_filter.empty();

    std::printf("scenario matrix: %zu scenarios x %zu designs, "
                "%llu windows x %u trial(s), alpha = %.4g, "
                "alarm = %u-of-%u, onset window %llu\n\n",
                scenarios.size(), designs.size(),
                static_cast<unsigned long long>(cfg.windows), cfg.trials,
                cfg.alpha, cfg.fail_threshold, cfg.policy_window,
                static_cast<unsigned long long>(onset));

    std::vector<core::scenario_report> all;
    for (const hw::block_config& design : designs) {
        const core::scenario_runner runner(design, cfg);
        std::printf("%s\n", design.name.c_str());
        std::printf("  %-14s %-9s %-10s %-12s %s\n", "scenario",
                    "alarmed", "latency", "false-rate", "top failing tests");
        for (const core::scenario& sc : scenarios) {
            const core::scenario_report rep = runner.run(sc);
            all.push_back(rep);

            std::string latency = "-";
            if (rep.detected()) {
                char buf[32];
                std::snprintf(buf, sizeof buf, "%.1f w",
                              rep.mean_detection_latency);
                latency = buf;
            }
            std::string tests;
            unsigned listed = 0;
            for (const hw::test_id id : hw::all_tests) {
                const std::uint64_t count = rep.failures_by_test[id];
                if (count == 0) {
                    continue;
                }
                if (listed++ == 3) {
                    tests += ", ...";
                    break;
                }
                tests += (tests.empty() ? "" : ", ")
                    + std::string(hw::to_string(id)) + " x"
                    + std::to_string(count);
            }
            std::printf("  %-14s %u/%-7u %-10s %-12.4f %s\n",
                        rep.scenario_name.c_str(), rep.trials_alarmed,
                        rep.trials, latency.c_str(),
                        rep.false_alarm_rate(), tests.c_str());
        }
        std::printf("\n");
    }

    // Library contract: union detection across designs per scenario.
    std::map<std::string, std::set<std::string>> detected_by;
    std::map<std::string, bool> expect_alarm;
    bool null_alarmed = false;
    for (const core::scenario_report& rep : all) {
        expect_alarm[rep.scenario_name] = rep.expect_alarm;
        if (rep.detected()) {
            detected_by[rep.scenario_name].insert(rep.design);
        }
        if (!rep.expect_alarm && rep.trials_alarmed > 0) {
            null_alarmed = true;
        }
    }
    bool ok = !null_alarmed;
    std::printf("summary:\n");
    for (const core::scenario& sc : scenarios) {
        if (!sc.expect_alarm) {
            std::printf("  %-14s %s\n", sc.name.c_str(),
                        null_alarmed ? "ALARMED (unexpected)"
                                     : "silent on every design");
            continue;
        }
        const auto& designs_hit = detected_by[sc.name];
        // Union detection is a property of the full matrix; a filtered
        // subset only reports it.
        ok = ok && (filtered || !designs_hit.empty());
        std::printf("  %-14s detected by %zu/%zu designs\n",
                    sc.name.c_str(), designs_hit.size(), designs.size());
    }

    json_writer json;
    json.begin_object();
    json.value("schema", "otf-scenario-matrix/1");
    write_what_ran(json);
    json.value("smoke", smoke_mode());
    json.value("filtered", filtered);
    json.value("alpha", cfg.alpha);
    json.value("windows_per_trial", cfg.windows);
    json.value("trials", cfg.trials);
    json.value("fail_threshold", cfg.fail_threshold);
    json.value("policy_window", cfg.policy_window);
    json.value("onset_window", onset);
    json.value("seed", cfg.seed);
    json.begin_array("results");
    for (const core::scenario_report& rep : all) {
        json.begin_object();
        json.value("scenario", rep.scenario_name);
        json.value("design", rep.design);
        json.value("source", rep.source);
        json.value("expect_alarm", rep.expect_alarm);
        json.value("trials", rep.trials);
        json.value("trials_alarmed", rep.trials_alarmed);
        json.value("trials_false_alarmed", rep.trials_false_alarmed);
        json.value("detected", rep.detected());
        json.value("expectation_met", rep.expectation_met());
        json.value("mean_detection_latency_windows",
                   rep.mean_detection_latency);
        json.value("worst_detection_latency_windows",
                   rep.worst_detection_latency);
        json.value("pre_onset_windows", rep.pre_onset_windows);
        json.value("pre_onset_failures", rep.pre_onset_failures);
        json.value("false_alarm_rate", rep.false_alarm_rate());
        json.value("post_onset_windows", rep.post_onset_windows);
        json.value("post_onset_failures", rep.post_onset_failures);
        json.value("bits", rep.bits);
        json.value("seconds", rep.seconds);
        json.value("bits_per_second", rep.bits_per_second());
        json.begin_object("failures_by_test");
        for (const hw::test_id id : hw::all_tests) {
            if (const std::uint64_t count = rep.failures_by_test[id]) {
                json.value(hw::to_string(id), count);
            }
        }
        json.end_object();
        json.end_object();
    }
    json.end_array();
    json.begin_array("summary");
    for (const core::scenario& sc : scenarios) {
        json.begin_object();
        json.value("scenario", sc.name);
        json.value("expect_alarm", sc.expect_alarm);
        json.begin_array("detected_by");
        for (const std::string& d : detected_by[sc.name]) {
            json.value({}, d);
        }
        json.end_array();
        json.end_object();
    }
    json.end_array();
    json.value("contract_ok", ok);
    json.end_object();

    const std::string path = bench_output_path("BENCH_scenarios.json");
    if (!write_bench_json(path, json)) {
        return 1;
    }
    std::printf("\nwrote %s\n", path.c_str());

    if (!ok) {
        std::printf("CONTRACT FAILED: an attack scenario went undetected "
                    "on every design, or the null scenario alarmed\n");
        return 1;
    }
    return 0;
}
