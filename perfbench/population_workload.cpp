// Population workload: core::population_monitor with every device on the
// n = 128 light design, escalating to n = 128 medium on a 2-of-8 alarm,
// under the default population_profile (25% of devices attacked, plus
// churn).  The only workload that reprograms blocks through the
// register-map write path, runs the supervisor's offline battery,
// generates through trng::device_source and exercises the population
// scheduler and aggregator.
//
// A run is several population_monitor::run() calls over populations whose
// master seeds derive from the workload seed.  The platform still throws
// on roughly one device in 10-20k (igamc: requires a > 0 and x >= 0, from
// the escalation's offline battery).  Because a population is a pure
// function of its master seed, set-up screens candidate master seeds with
// one recorded run each: a candidate that throws is logged with the device
// and source the exception names and replaced by the next candidate, so
// the timed phase only runs populations that complete.  A timed run that
// throws anyway counts all its windows as failed, and the benchmark
// continues.
#include "harness.hpp"

#include "core/critical_values.hpp"
#include "core/fleet_monitor.hpp"
#include "core/population.hpp"
#include "trng/device_profile.hpp"

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

/// Pool workers: nproc - 2, so the workers plus the aggregator thread
/// leave one core to the harness and the OS (host noise landing on a
/// worker's core would stall the whole pool's tail).
unsigned pool_workers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 2 ? hw - 2 : 1;
}

core::population_config make_config(const options& opt,
                                    std::uint64_t master, bool records)
{
    core::population_config cfg;
    cfg.block = core::paper_design(7, core::tier::light);
    cfg.escalated_block = core::paper_design(7, core::tier::medium);
    cfg.devices = opt.devices ? opt.devices : (opt.toy ? 256u : 4096u);
    cfg.shards = 1;
    cfg.threads_per_shard = pool_workers();
    cfg.master_seed = master;
    cfg.keep_device_records = records;
    return cfg;
}

/// One population of the rotation.
struct population {
    std::uint64_t master = 0;
    /// Default configuration, run in the timed phase.
    std::unique_ptr<core::population_monitor> timed;
    /// Same population with keep_device_records, for the checks.
    std::unique_ptr<core::population_monitor> recorded;
    /// The screening run's report (with device records), when it ran.
    std::optional<core::population_report> ref;
    /// `ref` without its records: what a default run must reproduce.
    std::optional<core::population_report> ref_counters;
    unsigned throws = 0; ///< timed runs that threw (logged twice at most)
};

std::uint64_t expected_windows(const core::population_config& cfg)
{
    return std::uint64_t{cfg.devices} * cfg.windows_per_device;
}

bool same_device(const core::device_record& rec,
                 const core::channel_report& cr)
{
    return rec.alarm == cr.alarm
        && rec.first_alarm_window == cr.first_alarm_window
        && rec.windows == cr.windows && rec.failures == cr.failures
        && rec.bits == cr.bits && rec.escalations == cr.escalations
        && rec.confirmed_escalations == cr.confirmed_escalations
        && rec.de_escalations == cr.de_escalations
        && rec.windows_escalated == cr.windows_escalated;
}

/// Runs a population's devices one at a time on the calling thread, as
/// the pool's work unit does: trng::device_source + core::run_fleet_channel.
struct device_runner {
    core::population_config cfg;
    core::fleet_config fcfg;
    core::critical_values cv;
    std::optional<core::critical_values> cv_escalated;

    explicit device_runner(core::population_config c)
        : cfg(std::move(c)), fcfg(cfg.shard_fleet_config()),
          cv(core::compute_critical_values(cfg.block, cfg.alpha)),
          cv_escalated(
              core::compute_critical_values(*cfg.escalated_block, cfg.alpha))
    {
        fcfg.channels = 1;
    }

    core::channel_report run(std::uint32_t device) const
    {
        const auto source = trng::make_device_source(
            trng::sample_device(cfg.profile, cfg.master_seed, device),
            cfg.block.n());
        return core::run_fleet_channel(fcfg, cv, cv_escalated, *source,
                                       device, cfg.windows_per_device);
    }
};

struct pool_stats {
    std::vector<double> mbit;
    std::vector<double> cpu_ns_per_bit;
    std::vector<double> ref_ms; ///< ref_kernel_ms before each pass
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    std::optional<core::population_report> first;
};

/// Runs pool passes over the rotation for at least `seconds` (and at
/// least one pass), checking each against its population's reference.
/// Each pass is preceded by one host-speed reference measurement on as
/// many threads as the pool runs.
void pool_loop(const std::vector<population*>& pops, double seconds,
               bool recorded, pool_stats& out, result& r)
{
    const std::int64_t start = wall_ns();
    const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
    std::size_t next = 0;
    do {
        population& pop = *pops[next++ % pops.size()];
        core::population_monitor& pm = recorded ? *pop.recorded : *pop.timed;
        const std::uint64_t windows = expected_windows(pm.config());
        const double ref_ms = ref_kernel_ms(pool_workers() + 1);
        const std::int64_t cpu0 = process_cpu_ns();
        const std::int64_t t0 = wall_ns();
        core::population_report rep;
        try {
            rep = pm.run();
        } catch (const std::exception& e) {
            if (++pop.throws <= 2) {
                std::fprintf(stderr,
                             "population run (master seed %llu) threw, "
                             "%llu windows counted as failed: %s\n",
                             static_cast<unsigned long long>(pop.master),
                             static_cast<unsigned long long>(windows),
                             e.what());
            }
            r.attempted += windows;
            r.failed += windows;
            continue;
        }
        const std::int64_t t1 = wall_ns();
        const std::int64_t cpu1 = process_cpu_ns();
        r.attempted += rep.windows;
        const std::optional<core::population_report>& want =
            recorded ? pop.ref : pop.ref_counters;
        if (rep.windows != windows
            || (want && !rep.same_counters(*want))) {
            std::fprintf(stderr,
                         "population run (master seed %llu) disagrees "
                         "with its reference run\n",
                         static_cast<unsigned long long>(pop.master));
            r.failed += rep.windows;
        }
        const double bits = static_cast<double>(rep.bits);
        out.mbit.push_back(bits / static_cast<double>(t1 - t0) * 1e3);
        out.cpu_ns_per_bit.push_back(static_cast<double>(cpu1 - cpu0) / bits);
        out.wall_s.push_back(static_cast<double>(t1 - t0) / 1e9);
        out.cpu_s.push_back(static_cast<double>(cpu1 - cpu0) / 1e9);
        out.ref_ms.push_back(ref_ms);
        if (!out.first) {
            out.first = std::move(rep);
        }
    } while (wall_ns() - start < budget);
}

/// Re-runs `devices` of `pop` one at a time and compares each against the
/// reference's device record; windows that disagree count as failed.
void check_devices(const population& pop, const core::population_report& ref,
                   const std::vector<std::uint32_t>& devices, bool corrupt,
                   result& r)
{
    const device_runner run(pop.recorded->config());
    std::uint64_t bad = 0;
    for (const std::uint32_t d : devices) {
        core::device_record want = ref.device_records.at(d);
        if (corrupt && d == devices.front()) {
            want.alarm = !want.alarm;
        }
        try {
            const core::channel_report cr = run.run(d);
            r.attempted += cr.windows;
            if (want.device != d || !same_device(want, cr)) {
                std::fprintf(stderr,
                             "device %u of master seed %llu differs from "
                             "its population record\n",
                             d, static_cast<unsigned long long>(pop.master));
                bad += cr.windows;
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "device %u threw when run alone: %s\n", d,
                         e.what());
            r.attempted += run.cfg.windows_per_device;
            bad += run.cfg.windows_per_device;
        }
    }
    r.failed += bad;
}

void detection_notes(const std::vector<population>& pops, result& r)
{
    std::uint64_t attacked = 0;
    std::uint64_t detected = 0;
    std::uint64_t healthy_alarms = 0;
    std::uint64_t healthy_windows = 0;
    std::uint64_t escalations = 0;
    std::uint64_t confirmed = 0;
    std::vector<std::uint64_t> latencies;
    for (const population& pop : pops) {
        if (!pop.ref) {
            continue;
        }
        const core::population_report& rep = *pop.ref;
        attacked += rep.devices_attacked;
        detected += rep.detected;
        healthy_alarms += rep.healthy_alarms;
        healthy_windows += rep.healthy_windows;
        escalations += rep.escalations;
        confirmed += rep.confirmed_escalations;
        for (const core::device_record& rec : rep.device_records) {
            if (rec.detected()) {
                latencies.push_back(rec.detection_latency());
            }
        }
    }
    std::sort(latencies.begin(), latencies.end());
    r.note("detect_frac",
           attacked ? static_cast<double>(detected)
                   / static_cast<double>(attacked)
                    : 0.0,
           "ratio");
    r.note("false_alarm_rate",
           healthy_windows ? static_cast<double>(healthy_alarms)
                   / static_cast<double>(healthy_windows)
                           : 0.0,
           "1/window");
    r.note("alarm_latency_p95_windows",
           static_cast<double>(core::nearest_rank(latencies, 0.95)),
           "windows");
    r.note("escalations", static_cast<double>(escalations), "count");
    r.note("confirmed_escalations", static_cast<double>(confirmed), "count");
}

} // namespace

double setup_population(const options& opt)
{
    const std::int64_t t0 = wall_ns();
    const core::population_monitor pm(
        make_config(opt, mix_seed(opt.seed, 100), false));
    const std::int64_t t1 = wall_ns();
    if (pm.config().devices == 0) {
        throw std::logic_error("empty population");
    }
    return static_cast<double>(t1 - t0) / 1e9;
}

result run_population(const options& opt)
{
    result r;
    const unsigned wanted = opt.toy ? 1 : 2;
    constexpr unsigned max_candidates = 12;

    // Set-up: pick the rotation.  Each candidate runs once with device
    // records (this also warms the pool); a forced master seed joins
    // unscreened, so its throw lands in the timed phase.
    std::vector<population> pops;
    unsigned screened = 0;
    const auto add = [&](std::uint64_t master, bool screen) {
        population pop;
        pop.master = master;
        pop.timed = std::make_unique<core::population_monitor>(
            make_config(opt, master, false));
        pop.recorded = std::make_unique<core::population_monitor>(
            make_config(opt, master, true));
        try {
            pop.ref = pop.recorded->run();
            pop.ref_counters = pop.ref;
            pop.ref_counters->device_records.clear();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s master seed %llu: %s\n",
                         screen ? "screened out" : "unscreened",
                         static_cast<unsigned long long>(master), e.what());
            if (screen) {
                ++screened;
                return;
            }
        }
        pops.push_back(std::move(pop));
    };
    if (opt.forced_master) {
        add(*opt.forced_master, false);
    }
    const std::size_t target = wanted + (opt.forced_master ? 1 : 0);
    for (unsigned k = 0; k < max_candidates && pops.size() < target; ++k) {
        add(mix_seed(opt.seed, 100 + k), true);
    }
    if (pops.size() < target) {
        throw std::runtime_error("no candidate population completed");
    }
    const core::population_config& cfg0 = pops.front().timed->config();
    r.note("devices_per_population", cfg0.devices, "count");
    r.note("populations", static_cast<double>(pops.size()), "count");
    r.note("screened_out_populations", screened, "count");
    detection_notes(pops, r);

    std::vector<population*> rotation;
    for (population& pop : pops) {
        rotation.push_back(&pop);
    }
    pool_stats untraced;
    pool_loop(rotation, opt.trace ? 0.35 * opt.seconds : opt.seconds, false,
              untraced, r);
    if (!untraced.first) {
        throw std::runtime_error("no population run completed");
    }
    const core::population_report& shown = *untraced.first;
    r.context.emplace_back("design", cfg0.block.name + " -> "
                                         + cfg0.escalated_block->name);
    r.context.emplace_back("execution", shown.execution);
    r.context.emplace_back("lane", shown.lane);
    r.context.emplace_back("worker_threads",
                           std::to_string(shown.worker_threads));

    if (!opt.trace) {
        // Spot check: evenly spaced devices of every screened population,
        // re-run alone, must match their population records.
        const std::uint32_t spots = opt.toy ? 16 : 32;
        for (const population& pop : pops) {
            if (!pop.ref) {
                continue;
            }
            std::vector<std::uint32_t> devices;
            for (std::uint32_t j = 0; j < spots; ++j) {
                devices.push_back(static_cast<std::uint32_t>(
                    std::uint64_t{j} * cfg0.devices / spots));
            }
            check_devices(pop, *pop.ref, devices,
                          opt.corrupt_verdict && &pop == &pops.front(), r);
        }
        r.add("norm_mbit_per_s",
              normalized_rate(untraced.mbit, untraced.ref_ms), "Mbit/s");
        r.add("norm_cpu_ns_per_bit",
              normalized_cost(untraced.cpu_ns_per_bit, untraced.ref_ms),
              "ns/bit");
        r.note("mbit_per_s", median(untraced.mbit), "Mbit/s");
        r.note("cpu_ns_per_bit", median(untraced.cpu_ns_per_bit), "ns/bit");
        r.note("ref_kernel_ms", median(untraced.ref_ms), "ms");
        r.add("peak_rss_mib", peak_rss_mib(), "MiB");
        r.note("pool_runs", static_cast<double>(untraced.mbit.size()),
               "count");
        r.note("error_frac",
               static_cast<double>(r.failed)
                   / static_cast<double>(r.attempted),
               "ratio");
        return r;
    }

    // Traced: the same pool with device records kept (the run whose
    // records the one-at-a-time re-run is checked against) ...
    population& pop = pops.back(); // screened, so it completes
    pool_stats traced;
    pool_loop({&pop}, 0.15 * opt.seconds, true, traced, r);
    if (!traced.first) {
        throw std::runtime_error("the traced population run threw");
    }
    const core::population_report& rec = *traced.first;
    const double pool_wall = median(traced.wall_s);
    const double pool_cpu = median(traced.cpu_s);

    // ... then every device of that population alone on this thread.
    const device_runner run(pop.recorded->config());
    std::vector<double> unit_ms;
    unit_ms.reserve(run.cfg.devices);
    double unit_cpu = 0.0;
    double escalated_cpu = 0.0;
    std::uint64_t escalations = 0;
    std::uint64_t confirmed = 0;
    for (std::uint32_t d = 0; d < run.cfg.devices; ++d) {
        const std::int64_t c0 = thread_cpu_ns();
        const std::int64_t t0 = wall_ns();
        core::channel_report cr;
        try {
            cr = run.run(d);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "device %u threw when run alone: %s\n", d,
                         e.what());
            r.attempted += run.cfg.windows_per_device;
            r.failed += run.cfg.windows_per_device;
            continue;
        }
        const std::int64_t t1 = wall_ns();
        const double cpu = static_cast<double>(thread_cpu_ns() - c0) / 1e9;
        unit_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        unit_cpu += cpu;
        if (cr.escalations > 0) {
            escalated_cpu += cpu;
        }
        escalations += cr.escalations;
        confirmed += cr.confirmed_escalations;
        r.attempted += cr.windows;
        core::device_record want = rec.device_records.at(d);
        if (opt.corrupt_verdict && d == 0) {
            want.alarm = !want.alarm;
        }
        if (!same_device(want, cr)) {
            std::fprintf(stderr,
                         "device %u differs between the pool run and the "
                         "one-at-a-time run\n",
                         d);
            r.failed += cr.windows;
        }
    }

    r.add("core.fleet_monitor.unit_ms_p50", percentile(unit_ms, 0.50), "ms");
    r.add("core.fleet_monitor.unit_ms_p99", percentile(unit_ms, 0.99), "ms");
    r.add("core.supervisor.escalated_time_share", escalated_cpu / unit_cpu,
          "ratio");
    r.add("core.supervisor.escalations", static_cast<double>(escalations),
          "count");
    r.add("core.supervisor.confirmed", static_cast<double>(confirmed),
          "count");
    r.add("core.population.unit_cpu_s", unit_cpu, "s");
    r.add("core.population.cpu_s", pool_cpu, "s");
    r.add("core.population.overhead_frac", 1.0 - unit_cpu / pool_cpu,
          "ratio");
    r.add("core.population.speedup", unit_cpu / pool_wall, "x");
    r.add("core.population.worker_threads", rec.worker_threads, "count");
    r.add("core.population.steals", static_cast<double>(rec.steals),
          "count");
    r.add("core.population.queue_pop_stalls",
          static_cast<double>(rec.queue_pop_stalls), "count");
    r.add("trace_overhead_frac",
          1.0 - normalized_rate(traced.mbit, traced.ref_ms)
                  / normalized_rate(untraced.mbit, untraced.ref_ms),
          "ratio");

    // Generation alone: fill_words on the population's device sources.
    {
        const std::uint32_t sample = std::min<std::uint32_t>(
            run.cfg.devices, opt.toy ? 64 : 512);
        const std::size_t words =
            run.cfg.windows_per_device * run.cfg.block.n() / 64;
        std::vector<std::uint64_t> buf(words);
        double ns = 0.0;
        for (std::uint32_t d = 0; d < sample; ++d) {
            const auto source = trng::make_device_source(
                trng::sample_device(run.cfg.profile, run.cfg.master_seed, d),
                run.cfg.block.n());
            const std::int64_t t0 = wall_ns();
            source->fill_words(buf.data(), words);
            ns += static_cast<double>(wall_ns() - t0);
        }
        r.add("trng.fill_ns_per_kbit",
              ns / (static_cast<double>(sample) * words * 64 / 1e3),
              "ns/kbit");
    }

    // The engines of the escalated design, on ideal windows.
    double ideal_fill = 0.0;
    const std::vector<std::uint64_t> ideal =
        ideal_windows(mix_seed(opt.seed, 2), std::size_t{1} << 20,
                      run.cfg.escalated_block->n(), ideal_fill);
    measure_engines(*run.cfg.escalated_block, ideal, 0.1 * opt.seconds, r);
    r.note("pool_wall_s", pool_wall, "s");
    r.note("error_frac",
           static_cast<double>(r.failed) / static_cast<double>(r.attempted),
           "ratio");
    return r;
}

} // namespace perfbench
