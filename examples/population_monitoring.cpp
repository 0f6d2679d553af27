// Population monitoring: a heterogeneous device fleet as sharded
// fleets-of-fleets.
//
//   $ ./population_monitoring
//
// The production shape of the paper's platform: hundreds of devices, each
// with its own bias point, some fraction under attack with per-device
// model, severity and onset drawn from one master seed
// (trng::sample_device), monitored shard by shard on one worker pool
// whose per-worker tallies merge into one report
// (core::population_monitor).  The report answers the fleet
// operator's questions: which device kinds alarmed, how fast attacks were
// caught (latency percentiles), and how many false escalations a
// device-day of healthy traffic is expected to cost.
#include "base/env.hpp"
#include "core/design_config.hpp"
#include "core/population.hpp"

#include <cstdio>

int main()
{
    using namespace otf;

    core::population_config cfg;
    cfg.block = core::paper_design(7, core::tier::light);
    cfg.escalated_block = core::paper_design(7, core::tier::medium);
    cfg.devices = smoke_scaled<std::uint32_t>(512, 128);
    cfg.shards = 2;
    cfg.windows_per_device = smoke_scaled<std::uint64_t>(16, 8);
    cfg.master_seed = 20250807;
    // A deliberately hostile population: a third of the fleet attacked,
    // with every model family represented.
    cfg.profile.attacked_fraction = 1.0 / 3.0;

    std::printf("population: %u devices over %u shards, %llu windows "
                "each, %s escalating to %s\n\n",
                cfg.devices, cfg.shards,
                static_cast<unsigned long long>(cfg.windows_per_device),
                cfg.block.name.c_str(), cfg.escalated_block->name.c_str());

    core::population_monitor pop(cfg);
    const core::population_report report = pop.run();
    std::printf("%s", core::format_population(report).c_str());

    // The run succeeds when the monitoring caught attacks: some attacked
    // device must have been detected at or after its onset, and every
    // device's windows must have reached the aggregate.
    std::uint64_t kind_devices = 0;
    for (const core::kind_summary& ks : report.by_kind) {
        kind_devices += ks.devices;
    }
    const bool ok = report.detected > 0 && kind_devices == report.devices
        && report.windows == report.devices * cfg.windows_per_device
        && report.devices_attacked + report.devices_healthy
        == report.devices;
    std::printf("\n%s\n", ok ? "population monitoring: attacks detected"
                             : "population monitoring FAILED");
    return ok ? 0 : 1;
}
