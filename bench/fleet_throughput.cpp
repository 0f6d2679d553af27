// Fleet throughput bench: per-bit vs span-lane ingestion and multi-channel
// scaling.
//
//   $ ./bench_fleet_throughput            # full run
//   $ OTF_SMOKE=1 ./bench_fleet_throughput  # ctest smoke entry
//
// Three measurements on the n = 65536 high-tier design (all nine tests,
// double-buffered):
//
//   1. single-channel per-bit lane  -- the paper-faithful oracle path
//      (hw::testing_block::feed, one virtual dispatch per engine per bit);
//   2. single-channel span lane     -- the feed_span kernels (the
//      default lane); the acceptance target is >= 5x over (1);
//   3. fleet scaling                -- core::fleet_monitor over 1..C
//      channels with the span lane, reporting aggregate Mbit/s and the
//      efficiency relative to one channel (bounded by the machine's core
//      count; the report prints hardware_concurrency for context).
//
// Timing only -- equivalence is proven separately by
// tests/test_kernel_oracle and test_fleet_monitor.  Results are also
// written to BENCH_fleet.json (schema "otf-fleet-bench/6", see
// docs/BENCHMARKS.md; OTF_BENCH_DIR overrides the output directory) so CI
// can archive the perf trajectory.
#include "base/env.hpp"
#include "base/json.hpp"
#include "core/design_config.hpp"
#include "core/fleet_monitor.hpp"
#include "core/monitor.hpp"
#include "trng/sources.hpp"
#include "what_ran.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace otf;

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0)
{
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double mbit_per_s(std::uint64_t bits, double seconds)
{
    return static_cast<double>(bits) / seconds / 1e6;
}

} // namespace

int main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (!parse_bench_dir_flag(argv[i])) {
            std::fprintf(stderr, "usage: %s [--bench-dir=<dir>]\n",
                         argv[0]);
            return 2;
        }
    }

    hw::block_config design = core::paper_design(16, core::tier::high);
    design.double_buffered = true;

    const std::uint64_t windows =
        smoke_scaled<std::uint64_t>(32, 2);
    const unsigned max_channels = smoke_scaled(8u, 2u);
    const std::uint64_t n = design.n();

    std::printf("design: %s (double-buffered), %llu-bit windows, "
                "%llu windows/channel\n",
                design.name.c_str(), static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(windows));
    std::printf("hardware_concurrency: %u\n\n",
                std::thread::hardware_concurrency());

    // 1. Single channel, per-bit lane (the oracle path).
    double bit_mbps;
    {
        core::monitor mon(design, 0.01);
        trng::ideal_source src(2025);
        const auto t0 = clock_type::now();
        for (std::uint64_t w = 0; w < windows; ++w) {
            mon.test_window(src);
        }
        const double s = seconds_since(t0);
        bit_mbps = mbit_per_s(windows * n, s);
        std::printf("per-bit lane : %8.1f Mbit/s\n", bit_mbps);
    }

    // 2. Single channel, span lane (the default).
    double span_mbps;
    {
        core::monitor mon(design, 0.01);
        trng::ideal_source src(2025);
        const auto t0 = clock_type::now();
        for (std::uint64_t w = 0; w < windows; ++w) {
            mon.test_window_words(src);
        }
        const double s = seconds_since(t0);
        span_mbps = mbit_per_s(windows * n, s);
        std::printf("span lane    : %8.1f Mbit/s   (%.1fx per-bit)\n\n",
                    span_mbps, span_mbps / bit_mbps);
    }

    // 3. Fleet scaling with the span lane.
    std::printf("%-10s %-8s %12s %12s\n", "channels", "threads",
                "Mbit/s", "scaling");
    struct scaling_point {
        unsigned channels;
        double mbps;
        double scaling;
    };
    std::vector<scaling_point> scaling;
    double one_channel_mbps = 0.0;
    for (unsigned channels = 1; channels <= max_channels; channels *= 2) {
        core::fleet_config cfg;
        cfg.block = design;
        cfg.channels = channels;
        cfg.threads = 0; // hardware concurrency
        core::fleet_monitor fleet(cfg);
        const auto report = fleet.run(
            [](unsigned c) {
                return std::make_unique<trng::ideal_source>(1000 + c);
            },
            windows);
        const double mbps = report.bits_per_second() / 1e6;
        if (channels == 1) {
            one_channel_mbps = mbps;
        }
        std::printf("%-10u %-8u %12.1f %11.2fx\n", channels,
                    std::min(channels,
                             std::max(1u,
                                      std::thread::hardware_concurrency())),
                    mbps, mbps / one_channel_mbps);
        scaling.push_back({channels, mbps, mbps / one_channel_mbps});
    }

    json_writer json;
    json.begin_object();
    json.value("schema", "otf-fleet-bench/6");
    json.value("smoke", smoke_mode());
    write_what_ran(json);
    json.value("design", design.name);
    json.value("window_bits", n);
    json.value("windows_per_channel", windows);
    json.value("hardware_concurrency",
               std::thread::hardware_concurrency());
    json.value("per_bit_mbps", bit_mbps);
    json.value("span_mbps", span_mbps);
    json.value("span_speedup", span_mbps / bit_mbps);
    json.begin_array("fleet");
    for (const scaling_point& p : scaling) {
        json.begin_object();
        json.value("channels", p.channels);
        json.value("mbps", p.mbps);
        json.value("scaling", p.scaling);
        json.end_object();
    }
    json.end_array();
    json.end_object();

    const std::string path = bench_output_path("BENCH_fleet.json");
    std::ofstream out(path);
    out << json.str();
    out.flush();
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf("\nwrote %s\n", path.c_str());
    return 0;
}
