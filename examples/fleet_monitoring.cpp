// Fleet monitoring: one supervisor, many TRNG channels.
//
//   $ ./fleet_monitoring
//
// A deployment the paper's single-channel platform scales into: eight TRNG
// channels (say, eight oscillator banks on one FPGA) each with their own
// on-the-fly testing pipeline, supervised together.  Six channels are
// healthy; channel 6 is under a supply-voltage attack that biases it to
// p(1) = 0.53, and channel 7 has a correlated (sticky) output.  The fleet
// runs every channel's window through the span fast lane on a worker pool
// and aggregates the verdicts; the per-channel AIS-31-style
// alarm (3 failures in the last 8 windows) singles out exactly the two
// attacked channels.
#include "base/env.hpp"
#include "core/design_config.hpp"
#include "core/fleet_monitor.hpp"
#include "core/report.hpp"
#include "trng/sources.hpp"

#include <cstdio>
#include <memory>
#include <string>

int main()
{
    using namespace otf;

    core::fleet_config cfg;
    cfg.block = core::paper_design(16, core::tier::high);
    cfg.block.double_buffered = true; // gap-free window hand-off
    // Nine tests per window: at alpha = 0.01 a healthy channel fails some
    // window ~8% of the time, which a 3-of-8 policy will occasionally
    // escalate.  Supervision therefore runs each test more stringently --
    // the attacked channels below fail by tens of sigma either way.
    cfg.alpha = 0.001;
    cfg.channels = smoke_scaled(8u, 4u);
    cfg.fail_threshold = 3;
    cfg.policy_window = 8;

    const unsigned biased_channel = cfg.channels - 2;
    const unsigned sticky_channel = cfg.channels - 1;
    const auto make_source =
        [&](unsigned c) -> std::unique_ptr<trng::entropy_source> {
        if (c == biased_channel) {
            return std::make_unique<trng::biased_source>(4000 + c, 0.53);
        }
        if (c == sticky_channel) {
            return std::make_unique<trng::markov_source>(4000 + c, 0.60);
        }
        return std::make_unique<trng::ideal_source>(4000 + c);
    };

    const std::uint64_t windows = smoke_scaled<std::uint64_t>(16, 8);
    core::fleet_monitor fleet(cfg);
    const core::fleet_report report = fleet.run(make_source, windows);

    std::printf("fleet: %u channels x %llu windows of %s, alpha = %.3f, "
                "alarm = %u-of-%u\n\n",
                cfg.channels, static_cast<unsigned long long>(windows),
                cfg.block.name.c_str(), cfg.alpha, cfg.fail_threshold,
                cfg.policy_window);
    // The shared plain-text formatter (core/report.hpp) includes the
    // per-channel stream telemetry -- occupancy high-water and stall
    // counters -- that this table used to drop.
    std::printf("%s", core::format_fleet(report).c_str());
    std::printf("aggregate simulation throughput: %.1f Mbit/s "
                "(%s lane, %.2f s wall clock)\n",
                report.bits_per_second() / 1e6, report.lane.c_str(),
                report.seconds);

    // The scenario succeeds when exactly the attacked channels alarmed.
    bool correct = report.channels_in_alarm == 2;
    for (const core::channel_report& ch : report.channels) {
        const bool attacked = ch.channel == biased_channel
            || ch.channel == sticky_channel;
        correct = correct && (ch.alarm == attacked);
    }
    std::printf("\n%s\n",
                correct ? "detection: exactly the attacked channels "
                          "are in alarm"
                        : "detection FAILED: alarm set does not match "
                          "the attacked channels");
    return correct ? 0 : 1;
}
