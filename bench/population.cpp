// Population bench: a heterogeneous device fleet under the paper's alpha
// calibration, sharded over the shared unit pool.
//
//   $ ./bench_population            # full run (10k devices)
//   $ OTF_SMOKE=1 ./bench_population  # ctest smoke entry (1k devices)
//
// Every device runs the supervised light-tier design (escalating to the
// medium tier on a 2-of-8 alarm); per-device bias, attack model, severity
// and onset are drawn from the master seed (trng::sample_device).  The
// bench answers the operator questions the single-channel paper leaves
// open -- expected false escalations per device-day, and alarm-latency
// percentiles across attacked devices -- and *enforces* the population
// determinism guarantee: the same master seed must produce identical
// reports (per-device records included) across {1, 2, auto} worker
// threads and {2, 4} shard layouts; any mismatch fails the run.
//
// Results go to BENCH_population.json (schema "otf-population/5", see
// docs/BENCHMARKS.md; OTF_BENCH_DIR / --bench-dir= override the output
// directory).
#include "base/env.hpp"
#include "base/json.hpp"
#include "core/design_config.hpp"
#include "core/population.hpp"
#include "what_ran.hpp"

#include <cstdio>
#include <string>
#include <vector>

using namespace otf;

int main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (!parse_bench_dir_flag(argv[i])) {
            std::fprintf(stderr, "usage: %s [--bench-dir=<dir>]\n",
                         argv[0]);
            return 2;
        }
    }

    core::population_config cfg;
    cfg.block = core::paper_design(7, core::tier::light);
    cfg.escalated_block = core::paper_design(7, core::tier::medium);
    cfg.alpha = 0.01;
    cfg.devices = smoke_scaled<std::uint32_t>(10000, 1000);
    cfg.windows_per_device = smoke_scaled<std::uint64_t>(16, 8);
    cfg.master_seed = 0x706f70756c617221ULL;
    cfg.keep_device_records = true; // determinism check covers per-device

    std::printf("population: %u devices, %llu windows each, design %s "
                "(escalates to %s)\n",
                cfg.devices,
                static_cast<unsigned long long>(cfg.windows_per_device),
                cfg.block.name.c_str(), cfg.escalated_block->name.c_str());

    // The determinism sweep: shard/thread layout must be invisible in the
    // report.  The first layout is the reference everything else (and the
    // JSON) is checked against.
    struct layout {
        unsigned shards;
        unsigned threads_per_shard; // 0 = auto
    };
    const std::vector<layout> layouts = {{2, 0}, {2, 1}, {2, 2}, {4, 2}};

    std::vector<core::population_report> reports;
    bool deterministic = true;
    for (const layout& l : layouts) {
        cfg.shards = l.shards;
        cfg.threads_per_shard = l.threads_per_shard;
        core::population_monitor pop(cfg);
        reports.push_back(pop.run());
        const core::population_report& r = reports.back();
        const bool same = r.same_counters(reports.front());
        deterministic = deterministic && same;
        std::printf("layout %u shards x %u threads: %.2fs, "
                    "%.2f Mbit/s, counters %s\n",
                    l.shards, l.threads_per_shard, r.seconds,
                    r.bits_per_second() / 1e6, same ? "match" : "MISMATCH");
    }
    const core::population_report& report = reports.front();

    std::printf("\n%s\n", core::format_population(report).c_str());

    // Contract: the run must exercise what the schema promises.
    bool ok = deterministic;
    if (report.detected == 0 || report.alarm_latency.samples == 0) {
        std::fprintf(stderr,
                     "FAIL: no attacked device was detected -- latency "
                     "percentiles are empty\n");
        ok = false;
    }
    std::uint64_t kind_devices = 0;
    for (const core::kind_summary& ks : report.by_kind) {
        kind_devices += ks.devices;
    }
    if (kind_devices != report.devices
        || report.windows != report.devices * cfg.windows_per_device) {
        std::fprintf(stderr,
                     "FAIL: %llu devices and %llu windows aggregated for "
                     "%u devices x %llu windows\n",
                     static_cast<unsigned long long>(kind_devices),
                     static_cast<unsigned long long>(report.windows),
                     report.devices,
                     static_cast<unsigned long long>(cfg.windows_per_device));
        ok = false;
    }
    if (!deterministic) {
        std::fprintf(stderr,
                     "FAIL: report depends on the shard/thread layout\n");
    }

    json_writer json;
    json.begin_object();
    json.value("schema", "otf-population/5");
    json.value("smoke", smoke_mode());
    write_what_ran(json);
    json.value("design", cfg.block.name);
    json.value("escalated_design", cfg.escalated_block->name);
    json.value("window_bits", cfg.block.n());
    json.value("alpha", cfg.alpha);
    json.value("devices", report.devices);
    json.value("windows_per_device", cfg.windows_per_device);
    json.value("master_seed", cfg.master_seed);
    json.value("device_bits_per_second", cfg.device_bits_per_second);
    json.value("deterministic_across_layouts", deterministic);
    json.begin_object("execution");
    json.value("model", report.execution);
    json.value("lane", report.lane);
    json.value("worker_threads", report.worker_threads);
    json.end_object();
    json.value("windows", report.windows);
    json.value("failures", report.failures);
    json.value("bits", report.bits);
    json.value("devices_attacked", report.devices_attacked);
    json.value("devices_healthy", report.devices_healthy);
    json.value("devices_churned", report.devices_churned);
    json.value("devices_alarmed", report.devices_alarmed);
    json.value("healthy_alarms", report.healthy_alarms);
    json.value("detected", report.detected);
    json.value("false_alarm_rate_per_window",
               report.false_alarm_rate_per_window);
    json.value("false_escalations_per_device_day",
               report.false_escalations_per_device_day);
    json.value("escalations", report.escalations);
    json.value("channels_escalated", report.channels_escalated);
    json.value("confirmed_escalations", report.confirmed_escalations);
    json.begin_object("alarm_latency_windows");
    json.value("p50", report.alarm_latency.p50);
    json.value("p95", report.alarm_latency.p95);
    json.value("p99", report.alarm_latency.p99);
    json.value("worst", report.alarm_latency.worst);
    json.value("mean", report.alarm_latency.mean);
    json.value("samples", report.alarm_latency.samples);
    json.end_object();
    json.begin_array("by_kind");
    for (std::size_t k = 0; k < report.by_kind.size(); ++k) {
        const core::kind_summary& ks = report.by_kind[k];
        json.begin_object();
        json.value("kind",
                   trng::to_string(static_cast<trng::device_kind>(k)));
        json.value("devices", ks.devices);
        json.value("alarmed", ks.alarmed);
        json.value("detected", ks.detected);
        json.end_object();
    }
    json.end_array();
    json.begin_array("shards");
    for (const core::population_shard_report& sr : report.shard_reports) {
        json.begin_object();
        json.value("shard", sr.shard);
        json.value("devices", sr.device_count);
        json.value("windows", sr.windows);
        json.value("failures", sr.failures);
        json.value("channels_in_alarm", sr.channels_in_alarm);
        json.value("escalations", sr.escalations);
        json.value("confirmed_escalations", sr.confirmed_escalations);
        json.end_object();
    }
    json.end_array();
    json.value("seconds", report.seconds);
    json.value("mbps", report.bits_per_second() / 1e6);
    json.end_object();

    const std::string path = bench_output_path("BENCH_population.json");
    if (!write_bench_json(path, json)) {
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return ok ? 0 : 1;
}
