// Scenario detection: drive an adversarial source model through its
// severity schedule and watch the on-the-fly monitor catch it.
//
//   $ ./scenario_detection
//
// Two views of the same machinery:
//
//   1. A hand-rolled timeline: an SRAM-style entropy-collapse model
//      (docs/SCENARIOS.md) over a healthy source, severity ramped window
//      by window like a supply-voltage attack, printing the per-window
//      verdicts as the collapse becomes visible.
//   2. The declarative path: core::scenario_runner executing the standard
//      adversarial library against the same design and summarizing
//      detection latency per scenario.
//
// Exits nonzero unless the timeline attack is caught after its onset and
// every library attack is detected with the null scenario silent.
#include "base/env.hpp"
#include "core/design_config.hpp"
#include "core/scenario.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"

#include <cstdio>
#include <memory>
#include <string>

int main()
{
    using namespace otf;

    const hw::block_config design =
        core::paper_design(16, core::tier::high);

    // -- 1. Hand-rolled timeline ------------------------------------------
    core::scenario_config cfg;
    cfg.windows = smoke_scaled<std::uint64_t>(32, 12);
    cfg.trials = 1;
    const std::uint64_t onset = smoke_scaled<std::uint64_t>(8, 3);
    const core::severity_schedule ramp{
        core::severity_schedule::shape::ramp, 1.0, onset,
        smoke_scaled<std::uint64_t>(8, 3), 0};

    core::monitor mon(design, cfg.alpha);
    core::windowed_alarm alarm(cfg.fail_threshold, cfg.policy_window);
    trng::entropy_collapse_source::parameters collapse;
    collapse.cell_one_prob = 0.6;
    auto model = std::make_unique<trng::entropy_collapse_source>(
        std::make_unique<trng::ideal_source>(2026), 2027, collapse);

    std::printf("timeline: %s under a ramped SRAM entropy collapse "
                "(onset window %llu)\n",
                design.name.c_str(),
                static_cast<unsigned long long>(onset));
    std::printf("%-8s %-9s %-7s %-7s %s\n", "window", "severity",
                "verdict", "alarm", "failing tests");
    std::uint64_t caught_at = cfg.windows;
    const auto set_severity = [&](std::uint64_t w) {
        model->set_severity(ramp.severity_at(w));
    };
    const auto print_window = [&](const core::window_report& wr) {
        const std::uint64_t w = wr.window_index;
        const bool failed = !wr.software.all_pass;
        const bool raised = alarm.record(failed);
        if (raised && caught_at == cfg.windows) {
            caught_at = w;
        }
        std::string tests;
        for (const core::test_verdict& v : wr.software.verdicts) {
            if (!v.pass) {
                tests += tests.empty() ? "" : ", ";
                tests += hw::to_string(v.id);
            }
        }
        std::printf("%-8llu %-9.2f %-7s %-7s %s\n",
                    static_cast<unsigned long long>(w),
                    ramp.severity_at(w), failed ? "FAIL" : "pass",
                    raised ? "RAISED" : "-", tests.c_str());
    };
    core::run_windows(mon, *model, cfg.windows, core::ingest_lane::span,
                      {set_severity, nullptr, print_window});
    const bool timeline_ok = caught_at >= onset && caught_at < cfg.windows;
    std::printf("-> %s\n\n",
                timeline_ok ? "attack caught after onset"
                            : "attack NOT caught after onset");

    // -- 2. The declarative library ---------------------------------------
    const core::scenario_runner runner(design, cfg);
    const auto reports = runner.run_all(core::standard_scenarios(
        onset, smoke_scaled<std::uint64_t>(8, 3)));
    std::printf("standard library on %s:\n", design.name.c_str());
    bool library_ok = true;
    for (const core::scenario_report& rep : reports) {
        library_ok = library_ok && rep.expectation_met();
        if (rep.expect_alarm) {
            std::printf("  %-14s %s, latency %.1f windows\n",
                        rep.scenario_name.c_str(),
                        rep.detected() ? "detected" : "MISSED",
                        rep.mean_detection_latency);
        } else {
            std::printf("  %-14s %s\n", rep.scenario_name.c_str(),
                        rep.trials_alarmed == 0 ? "silent (as it must be)"
                                                : "ALARMED (false)");
        }
    }
    std::printf("\n%s\n",
                timeline_ok && library_ok
                    ? "scenario detection: all expectations met"
                    : "scenario detection FAILED");
    return timeline_ok && library_ok ? 0 : 1;
}
