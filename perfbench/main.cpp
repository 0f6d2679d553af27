// The repository benchmark's measuring binary.  perfbench/run.py builds
// and drives it; run it directly to look at one workload:
//
//   otf_perfbench --workload monitor-high64k --seed 1 --seconds 10 --trace 0
//   otf_perfbench --workload population-esc128 --setup-only
//
// Prints what ran, every metric with its unit ("metric" lines go into the
// summary, "note" lines are context that does not apply to every
// workload), and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (run.py adds
// setup_s from fresh processes); with --trace 1 the per-layer ones.  A
// per-layer metric of a layer the workload does not exercise reads 0.
#include "harness.hpp"

#include "base/bits.hpp"

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <sys/resource.h>
#include <thread>

namespace perfbench {

double peak_rss_mib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double ref_kernel_ms(unsigned threads)
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k;
        for (int i = 0; i < 40; ++i) {
            k.push_back("engine.counter_" + std::to_string(i * 7919));
        }
        return k;
    }();
    std::atomic<std::int64_t> sink{0};
    std::atomic<std::int64_t> busy_ns{0};
    const auto body = [&sink, &busy_ns] {
        const std::int64_t t0 = wall_ns();
        std::int64_t acc = 0;
        for (int rep = 0; rep < 2000; ++rep) {
            std::map<std::string, std::int64_t> m;
            for (std::size_t i = 0; i < keys.size(); ++i) {
                m.emplace(keys[i], static_cast<std::int64_t>(i) + rep);
            }
            for (const std::string& key : keys) {
                acc += m.find(key)->second;
            }
        }
        sink += acc;
        busy_ns += wall_ns() - t0;
    };
    if (threads <= 1) {
        body();
    } else {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t) {
            pool.emplace_back(body);
        }
        for (std::thread& t : pool) {
            t.join();
        }
    }
    if (sink.load() == 0) {
        throw std::logic_error("reference kernel did no work");
    }
    return static_cast<double>(busy_ns.load())
        / static_cast<double>(std::max(threads, 1u)) / 1e6;
}

} // namespace perfbench

namespace {

using namespace otf;
using perfbench::metric;

/// Summary metrics by name and unit, in output order.
const std::vector<std::pair<const char*, const char*>> end_to_end = {
    {"norm_mbit_per_s", "Mbit/s"},
    {"norm_cpu_ns_per_bit", "ns/bit"},
    {"peak_rss_mib", "MiB"},
};

const std::vector<std::pair<const char*, const char*>> per_layer = {
    {"hw.engine.cusum.ns_per_kbit", "ns/kbit"},
    {"hw.engine.block_frequency.ns_per_kbit", "ns/kbit"},
    {"hw.engine.runs.ns_per_kbit", "ns/kbit"},
    {"hw.engine.longest_run.ns_per_kbit", "ns/kbit"},
    {"hw.engine.non_overlapping.ns_per_kbit", "ns/kbit"},
    {"hw.engine.overlapping.ns_per_kbit", "ns/kbit"},
    {"hw.engine.serial.ns_per_kbit", "ns/kbit"},
    {"hw.engine.serial.window_share", "ratio"},
    {"core.monitor.feed_us", "us"},
    {"core.monitor.close_us", "us"},
    {"core.monitor.close_share", "ratio"},
    {"hw.block.finish_us", "us"},
    {"core.sw_routines.pass_us", "us"},
    {"core.monitor.close_other_us", "us"},
    {"sw16.ops_per_window", "count"},
    {"sw16.sw_cycles_per_window", "count"},
    {"trng.fill_ns_per_kbit", "ns/kbit"},
    {"core.fleet_monitor.unit_ms_p50", "ms"},
    {"core.fleet_monitor.unit_ms_p99", "ms"},
    {"core.supervisor.escalated_time_share", "ratio"},
    {"core.supervisor.escalations", "count"},
    {"core.supervisor.confirmed", "count"},
    {"core.population.unit_cpu_s", "s"},
    {"core.population.cpu_s", "s"},
    {"core.population.overhead_frac", "ratio"},
    {"core.population.speedup", "x"},
    {"core.population.worker_threads", "count"},
    {"core.population.steals", "count"},
    {"core.population.queue_pop_stalls", "count"},
    {"trace_overhead_frac", "ratio"},
};

std::string number(double v)
{
    if (!std::isfinite(v)) {
        throw std::logic_error("a metric is not a finite number");
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out + "\"";
}

const char* variant_name(bits::kernel_variant v)
{
    switch (v) {
    case bits::kernel_variant::reference:
        return "reference";
    case bits::kernel_variant::portable:
        return "portable";
    case bits::kernel_variant::simd:
        return "simd";
    }
    return "unknown";
}

[[noreturn]] void usage(const char* msg)
{
    std::fprintf(stderr,
                 "otf_perfbench: %s\n"
                 "usage: otf_perfbench --workload <monitor-high64k|"
                 "monitor-light128|population-esc128> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--setup-only] [--toy] "
                 "[--corrupt-verdict] [--master-seed N] [--devices N]\n",
                 msg);
    std::exit(2);
}

std::uint64_t parse_u64(const char* s)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 0);
    if (end == s || *end != '\0') {
        usage("expected an unsigned integer");
    }
    return v;
}

perfbench::options parse(int argc, char** argv)
{
    perfbench::options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(("missing value after " + a).c_str());
            }
            return argv[++i];
        };
        if (a == "--workload") {
            opt.workload = next();
        } else if (a == "--seed") {
            opt.seed = parse_u64(next());
        } else if (a == "--seconds") {
            opt.seconds = std::atof(next());
        } else if (a == "--trace") {
            opt.trace = parse_u64(next()) != 0;
        } else if (a == "--setup-only") {
            opt.setup_only = true;
        } else if (a == "--toy") {
            opt.toy = true;
        } else if (a == "--corrupt-verdict") {
            opt.corrupt_verdict = true;
        } else if (a == "--master-seed") {
            opt.forced_master = parse_u64(next());
        } else if (a == "--devices") {
            opt.devices = static_cast<std::uint32_t>(parse_u64(next()));
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!(opt.seconds > 0.0)) {
        usage("--seconds must be positive");
    }
    return opt;
}

/// Puts `got` in catalogue order, checks names and units, and fills a
/// layer the workload does not exercise with 0.
std::vector<metric> summary(
    const std::vector<std::pair<const char*, const char*>>& catalogue,
    const std::vector<metric>& got, bool fill_missing)
{
    for (const metric& m : got) {
        bool known = false;
        for (const auto& [name, unit] : catalogue) {
            known = known || (m.name == name && m.unit == unit);
        }
        if (!known) {
            throw std::logic_error("metric outside the catalogue: " + m.name
                                   + " [" + m.unit + "]");
        }
    }
    std::vector<metric> out;
    for (const auto& [name, unit] : catalogue) {
        bool found = false;
        for (const metric& m : got) {
            if (m.name == name) {
                out.push_back(m);
                found = true;
            }
        }
        if (!found) {
            if (!fill_missing) {
                throw std::logic_error(std::string("metric missing: ")
                                       + name);
            }
            std::printf("n/a %s (layer not exercised by this workload)\n",
                        name);
            out.push_back({name, 0.0, unit});
        }
    }
    return out;
}

int run(const perfbench::options& opt)
{
    if (opt.setup_only) {
        double s = 0.0;
        if (opt.workload == "monitor-high64k") {
            s = perfbench::setup_monitor(16, core::tier::high);
        } else if (opt.workload == "monitor-light128") {
            s = perfbench::setup_monitor(7, core::tier::light);
        } else if (opt.workload == "population-esc128") {
            s = perfbench::setup_population(opt);
        } else {
            usage("unknown workload");
        }
        // The host-speed reference, taken after the cold construction so
        // it does not warm anything the construction uses.
        const double ref = perfbench::ref_kernel_ms(1);
        std::printf("setup_s %s ref_kernel_ms %s\n", number(s).c_str(),
                    number(ref).c_str());
        return 0;
    }

    perfbench::result r;
    if (opt.workload == "monitor-high64k") {
        r = perfbench::run_monitor(opt, 16, core::tier::high);
    } else if (opt.workload == "monitor-light128") {
        r = perfbench::run_monitor(opt, 7, core::tier::light);
    } else if (opt.workload == "population-esc128") {
        r = perfbench::run_population(opt);
    } else {
        usage("unknown workload");
    }

    // What ran, so figures from different builds or lanes are never
    // compared unknowingly.
    r.context.emplace_back("kernel_variant",
                           variant_name(bits::active_kernel_variant()));
    r.context.emplace_back("simd_compiled",
                           bits::simd_compiled() ? "true" : "false");
    r.context.emplace_back("compiler", __VERSION__);
    r.context.emplace_back("build_type", OTF_PERFBENCH_BUILD_TYPE);
    r.context.emplace_back(
        "nproc", std::to_string(std::thread::hardware_concurrency()));
    std::string ctx = "{";
    for (const auto& [key, value] : r.context) {
        ctx += (ctx.size() > 1 ? ", " : "") + quoted(key) + ": "
            + quoted(value);
    }
    std::printf("context %s}\n", ctx.c_str());

    const std::vector<metric> metrics = opt.trace
        ? summary(per_layer, r.metrics, true)
        : summary(end_to_end, r.metrics, false);
    for (const metric& m : metrics) {
        std::printf("metric %s = %s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());
    }
    for (const metric& m : r.notes) {
        std::printf("note %s = %s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());
    }

    std::string json = "{\"correct\": ";
    json += r.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", " : "") + quoted(metrics[i].name)
            + ": {\"value\": " + number(metrics[i].value)
            + ", \"unit\": " + quoted(metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    const perfbench::options opt = parse(argc, argv);
    if (opt.workload.empty()) {
        usage("--workload is required");
    }
    try {
        return run(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "otf_perfbench: %s\n", e.what());
        return 1;
    }
}
