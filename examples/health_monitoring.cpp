// Continuous health monitoring of an aging TRNG.
//
// The paper distinguishes "quick tests for fast detection of the total
// failure of the entropy source" from "slow tests for the detection of
// long term statistical weaknesses".  This example supervises one slowly
// degrading device over its lifetime as a single monitored channel
// (core::run_fleet_channel): the lightweight always-on design watches
// every window, failure statistics accumulate per test, and the alarm
// policy (k failures in the last w windows) turns the noisy per-window
// verdicts into a stable decision.  The SP 800-90B continuous tests ride
// along as the quick tests, fed every raw window through the channel's
// tap.
#include "core/design_config.hpp"
#include "core/fleet_monitor.hpp"
#include "core/sp80090b.hpp"
#include "hw/health_tests.hpp"
#include "trng/sources.hpp"

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

int main()
{
    using namespace otf;

    // The always-on watchdog tier: five tests, ~50 slices of hardware.
    core::fleet_config cfg;
    cfg.block = core::paper_design(16, core::tier::light);
    cfg.alpha = 0.01;
    cfg.fail_threshold = 3;
    cfg.policy_window = 8;
    cfg.validate();
    const core::critical_values cv =
        core::compute_critical_values(cfg.block, cfg.alpha);
    const unsigned lifetime_windows = 80;

    // A device whose bias drifts to 0.54 over 60 windows of lifetime.
    trng::aging_source device(2718, 0.54, 60ull * cfg.block.n());

    // SP 800-90B quick tests on the raw stream, at full entropy claim.
    hw::repetition_count_hw rct(core::rct_cutoff(1.0));
    hw::adaptive_proportion_hw apt(10, core::apt_cutoff(1024, 1.0));

    std::printf("lifetime monitoring of an aging TRNG (%s, alpha = 0.01, "
                "alarm = 3-of-8)\n\n",
                cfg.block.name.c_str());
    std::printf("%-7s %-10s %-9s %-8s %s\n", "window", "true p(1)",
                "verdict", "alarm", "note");

    // The sink keeps the per-window timeline; the channel report says
    // where the alarm rose.
    struct row {
        double p_one;
        bool failed;
    };
    std::vector<row> timeline;
    double p_now = 0.0;
    std::uint64_t bit_index = 0;
    core::window_hooks hooks;
    hooks.before = [&](std::uint64_t) { p_now = device.current_p_one(); };
    hooks.tap = [&](std::uint64_t, const std::uint64_t* words,
                    std::size_t nwords) {
        rct.consume_span(words, nwords * 64, bit_index);
        apt.consume_span(words, nwords * 64, bit_index);
        bit_index += nwords * 64;
    };
    hooks.sink = [&](const core::window_report& wr) {
        timeline.push_back({p_now, !wr.software.all_pass});
    };
    const core::channel_report report = core::run_fleet_channel(
        cfg, cv, std::nullopt, device, 0, lifetime_windows, hooks);

    // Print the timeline up to the window that raised the alarm.
    for (std::uint64_t w = 0;
         w < timeline.size() && w <= report.first_alarm_window; ++w) {
        const bool raised = w == report.first_alarm_window;
        if (w % 8 == 0 || timeline[w].failed || raised) {
            std::printf("%-7llu %-10.4f %-9s %-8s %s\n",
                        static_cast<unsigned long long>(w),
                        timeline[w].p_one,
                        timeline[w].failed ? "FAIL" : "pass",
                        raised ? "RAISED" : "-",
                        raised ? "retire the device"
                               : (timeline[w].failed ? "recorded by policy"
                                                     : ""));
        }
    }

    std::printf("\nsummary over the whole %llu-window lifetime:\n",
                static_cast<unsigned long long>(report.windows));
    std::printf("  windows failed: %llu\n",
                static_cast<unsigned long long>(report.failures));
    for (const hw::test_id id : hw::all_tests) {
        if (const std::uint64_t count = report.failures_by_test[id]) {
            std::printf("  %-24s flagged %llu time(s)\n",
                        std::string(hw::to_string(id)).c_str(),
                        static_cast<unsigned long long>(count));
        }
    }
    std::printf("  SP 800-90B repetition count:   %s (longest run %llu, "
                "cutoff %u)\n",
                rct.alarm() ? "ALARM" : "quiet",
                static_cast<unsigned long long>(rct.longest_run()),
                rct.cutoff());
    std::printf("  SP 800-90B adaptive proportion: %s (cutoff %u of "
                "1024)\n",
                apt.alarm() ? "ALARM" : "quiet", apt.cutoff());
    if (report.alarm) {
        std::printf("\nthe policy would retire the device at window "
                    "%llu, while its bias was still\nonly %.3f -- long "
                    "before a catastrophic failure.\n",
                    static_cast<unsigned long long>(
                        report.first_alarm_window),
                    timeline[report.first_alarm_window].p_one);
    }

    std::printf("\nlifetime software cost: %llu MCU cycles (worst window "
                "%llu)\n",
                static_cast<unsigned long long>(report.sw_cycles),
                static_cast<unsigned long long>(report.worst_sw_cycles));
    return report.alarm ? 0 : 1;
}
