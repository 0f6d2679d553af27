// Stream throughput bench: the shared window loop (core::run_windows)
// per ingestion lane and kernel variant, fleet scaling, and the source
// models that feed it.
//
//   $ ./bench_stream_throughput            # full run (enforces the bars)
//   $ OTF_SMOKE=1 ./bench_stream_throughput  # ctest / verify.sh smoke entry
//
// Four measurements on the n = 65536 high-tier design (all nine tests,
// double-buffered), then one on the paper's short windows:
//
//   1. window loop     -- core::run_windows on the default (span) lane:
//      one thread alternating fill_words_available and the window test;
//      the same loop on the per-bit oracle lane is timed next to it;
//   2. span kernels    -- the window loop swept over the base/bits.hpp
//      kernel variants (reference / portable / simd); the acceptance bar
//      is >= 5x the per-bit lane for the dispatched (simd-or-portable)
//      variant on full runs;
//   3. fleet           -- core::fleet_monitor over 1..C channels,
//      reporting aggregate Mbit/s and the scaling over one channel;
//   4. generation      -- every adversarial source model at default
//      parameters and severity 1.0 over an ideal inner, timed through
//      fill_words (one next_word() per output word); this times the
//      generation side of the window loop (its stream is pinned by
//      tests/test_generation_oracle.cpp);
//   5. short windows   -- core::run_windows on the n = 128 light and
//      medium designs, where the window close (register capture and
//      readout, sw16 software pass) dominates: Mbit/s, close us per
//      window, and sw16 instructions and MSP430 cycles per window.  The
//      first window of each run is a golden Table III window
//      (tests/support/sw_golden.hpp); its instruction vector and cycle
//      count must match exactly on every run, smoke included.
//
// Equivalence is proven separately (tests/test_core_monitor.cpp,
// tests/test_kernel_oracle.cpp and tests/test_generation_oracle.cpp);
// this is timing only.  Results go to BENCH_stream.json (schema
// "otf-stream-bench/7", docs/BENCHMARKS.md; OTF_BENCH_DIR overrides the
// output directory).
#include "base/bits.hpp"
#include "base/env.hpp"
#include "base/json.hpp"
#include "core/design_config.hpp"
#include "core/fleet_monitor.hpp"
#include "core/monitor.hpp"
#include "support/sw_golden.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"
#include "what_ran.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
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

double mwords_per_s(std::uint64_t words, double seconds)
{
    return static_cast<double>(words) / seconds / 1e6;
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

    const std::uint64_t windows = smoke_scaled<std::uint64_t>(48, 2);
    const std::size_t nwords = static_cast<std::size_t>(design.n() / 64);
    const std::uint64_t total_words = windows * nwords;

    std::printf("design: %s (double-buffered), %zu words/window, "
                "%llu windows\n",
                design.name.c_str(), nwords,
                static_cast<unsigned long long>(windows));
    std::printf("hardware_concurrency: %u\n\n",
                std::thread::hardware_concurrency());

    // Best-of-N timing: every single-channel measurement repeats and
    // keeps the fastest pass, so scheduler noise on a loaded machine
    // cannot flip an acceptance ratio (full runs only; smoke proves the
    // plumbing).
    const unsigned reps = smoke_scaled(3u, 1u);
    const auto time_loop = [&](core::ingest_lane lane) {
        double best = 0.0;
        for (unsigned r = 0; r < reps; ++r) {
            core::monitor mon(design, 0.01);
            trng::ideal_source src(2025);
            const auto t0 = clock_type::now();
            core::run_windows(mon, src, windows, lane);
            best = std::max(best,
                            mwords_per_s(total_words, seconds_since(t0)));
        }
        return best;
    };

    // 1. The window loop on the default lane and on the per-bit oracle
    // lane (the baseline the span kernels are measured against).
    const double fused_mwps = time_loop(core::ingest_lane::span);
    std::printf("window loop     : %8.2f Mwords/s\n", fused_mwps);
    const double per_bit_mwps = time_loop(core::ingest_lane::per_bit);
    std::printf("per-bit lane    : %8.2f Mwords/s\n", per_bit_mwps);

    // 2. Span kernels: the same loop once per kernel variant.  The
    // variant the runtime dispatch picks on its own (simd when compiled
    // in, portable otherwise) carries the acceptance bar.
    struct kernel_point {
        const char* variant;
        bool dispatched; // the variant runtime dispatch picks by default
        double mwps;
    };
    const bits::kernel_variant best = bits::default_kernel_variant();
    std::vector<kernel_point> kernels;
    double span_mwps = 0.0;
    for (const bits::kernel_variant variant :
         {bits::kernel_variant::reference, bits::kernel_variant::portable,
          bits::kernel_variant::simd}) {
        bits::set_kernel_variant(variant);
        const double mwps = time_loop(core::ingest_lane::span);
        const bool dispatched = variant == best;
        if (dispatched) {
            span_mwps = mwps;
        }
        kernels.push_back({bits::to_string(variant), dispatched, mwps});
        std::printf("span lane (%-9s): %8.2f Mwords/s   (%.2fx per-bit "
                    "lane%s)\n",
                    bits::to_string(variant), mwps, mwps / per_bit_mwps,
                    dispatched ? ", dispatched" : "");
    }
    bits::set_kernel_variant(best);
    const double span_over_per_bit = span_mwps / per_bit_mwps;

    // 3. Fleet scaling.
    const unsigned max_channels = smoke_scaled(8u, 2u);
    std::printf("\n%-10s %12s %12s\n", "channels", "Mbit/s", "scaling");
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
        cfg.threads = 0;
        cfg.lane = core::ingest_lane::span;
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
        const scaling_point p{channels, mbps, mbps / one_channel_mbps};
        std::printf("%-10u %12.1f %11.2fx\n", channels, mbps, p.scaling);
        scaling.push_back(p);
    }

    // 4. Generation: every adversarial source model at default
    // parameters and full severity over an ideal inner.
    struct generation_point {
        const char* model;
        double mwps;
    };
    const std::uint64_t gen_words = smoke_scaled<std::uint64_t>(
        std::uint64_t{1} << 21, std::uint64_t{1} << 14);
    const std::size_t gen_batch = 4096;
    const auto inner = [] {
        return std::make_unique<trng::ideal_source>(7);
    };
    struct gen_model {
        const char* name;
        std::function<std::unique_ptr<trng::source_model>()> make;
    };
    const gen_model gen_models[] = {
        {"rtn",
         [&] { return std::make_unique<trng::rtn_source>(inner(), 11); }},
        {"bias_drift",
         [&] {
             return std::make_unique<trng::bias_drift_source>(inner(), 12);
         }},
        {"lockin",
         [&] {
             return std::make_unique<trng::lockin_source>(inner(), 13);
         }},
        {"fault",
         [&] {
             return std::make_unique<trng::fault_source>(inner(), 14);
         }},
        {"entropy_collapse",
         [&] {
             return std::make_unique<trng::entropy_collapse_source>(
                 inner(), 15);
         }},
        {"substitution",
         [&] {
             return std::make_unique<trng::substitution_source>(inner(),
                                                                16);
         }},
    };
    std::vector<generation_point> generation;
    std::printf("\ngeneration (severity 1.0, batch %zu words, "
                "%llu words/model):\n",
                gen_batch, static_cast<unsigned long long>(gen_words));
    std::vector<std::uint64_t> gen_buf(gen_batch);
    for (const gen_model& gm : gen_models) {
        const auto model = gm.make();
        generation_point p{gm.name, 0.0};
        for (unsigned r = 0; r < reps; ++r) {
            const auto t0 = clock_type::now();
            for (std::uint64_t made = 0; made < gen_words;
                 made += gen_batch) {
                model->fill_words(gen_buf.data(), gen_batch);
            }
            p.mwps = std::max(p.mwps,
                              mwords_per_s(gen_words, seconds_since(t0)));
        }
        generation.push_back(p);
        std::printf("  %-18s %8.2f Mwords/s\n", gm.name, p.mwps);
    }

    // 5. Short windows.  Golden windows 0 and 1 are the n = 128 light and
    // medium designs; a run seeded like the golden window starts with it.
    struct short_point {
        std::string design;
        std::uint64_t window_bits;
        double mbps;
        double close_us;
        double ops_per_window;
        double cycles_per_window;
        bool golden_match;
    };
    const std::vector<test::golden_window> golden = test::golden_windows();
    const std::uint64_t short_windows =
        smoke_scaled<std::uint64_t>(200000, 2000);
    std::vector<short_point> short_points;
    std::printf("\nshort windows (%llu windows each):\n",
                static_cast<unsigned long long>(short_windows));
    for (std::size_t g = 0; g < 2; ++g) {
        const hw::block_config& cfg = golden[g].design;
        const std::uint64_t seed = test::kGoldenSeedBase + g;
        const double bits = static_cast<double>(short_windows * cfg.n());
        short_point p{cfg.name, cfg.n(), 0.0, 0.0, 0.0, 0.0, false};
        for (unsigned r = 0; r < reps; ++r) {
            core::monitor mon(cfg, 0.01);
            trng::ideal_source src(seed);
            const auto t0 = clock_type::now();
            core::run_windows(mon, src, short_windows);
            p.mbps = std::max(p.mbps, bits / seconds_since(t0) / 1e6);
        }
        // The same windows again, one at a time, timing only the close.
        core::monitor mon(cfg, 0.01);
        trng::ideal_source src(seed);
        std::vector<std::uint64_t> words(cfg.n() / 64);
        double close_s = 0.0;
        std::uint64_t ops = 0;
        std::uint64_t cycles = 0;
        for (std::uint64_t w = 0; w < short_windows; ++w) {
            src.fill_words(words.data(), words.size());
            mon.feed_packed(words.data(), words.size());
            const auto t0 = clock_type::now();
            const core::window_report rep = mon.finish_packed();
            close_s += seconds_since(t0);
            ops += rep.software.total_ops.total();
            cycles += rep.sw_cycles;
            if (w == 0) {
                p.golden_match =
                    test::op_vector(rep.software.total_ops)
                        == golden[g].ops
                    && rep.sw_cycles == golden[g].sw_cycles;
            }
        }
        const auto per_window = [&](double total) {
            return total / static_cast<double>(short_windows);
        };
        p.close_us = per_window(close_s * 1e6);
        p.ops_per_window = per_window(static_cast<double>(ops));
        p.cycles_per_window = per_window(static_cast<double>(cycles));
        std::printf("  %-14s %8.2f Mbit/s  close %6.3f us/window  "
                    "sw16 %6.2f ops, %7.2f cycles/window  golden %s\n",
                    p.design.c_str(), p.mbps, p.close_us, p.ops_per_window,
                    p.cycles_per_window, p.golden_match ? "ok" : "MISMATCH");
        short_points.push_back(p);
    }

    json_writer json;
    json.begin_object();
    json.value("schema", "otf-stream-bench/7");
    json.value("smoke", smoke_mode());
    write_what_ran(json);
    json.value("design", design.name);
    json.value("window_bits", design.n());
    json.value("words_per_window", static_cast<std::uint64_t>(nwords));
    json.value("windows", windows);
    json.value("hardware_concurrency",
               std::thread::hardware_concurrency());
    json.value("fused_mwords_per_s", fused_mwps);
    json.value("per_bit_mwords_per_s", per_bit_mwps);
    json.begin_array("span_kernels");
    for (const kernel_point& k : kernels) {
        json.begin_object();
        json.value("variant", k.variant);
        json.value("dispatched", k.dispatched);
        json.value("mwords_per_s", k.mwps);
        json.value("over_per_bit_lane", k.mwps / per_bit_mwps);
        json.end_object();
    }
    json.end_array();
    json.value("span_over_per_bit", span_over_per_bit);
    json.begin_array("fleet");
    for (const scaling_point& p : scaling) {
        json.begin_object();
        json.value("channels", p.channels);
        json.value("mbps", p.mbps);
        json.value("scaling", p.scaling);
        json.end_object();
    }
    json.end_array();
    json.begin_array("generation");
    for (const generation_point& p : generation) {
        json.begin_object();
        json.value("model", p.model);
        json.value("mwords_per_s", p.mwps);
        json.end_object();
    }
    json.end_array();
    json.begin_array("short_windows");
    for (const short_point& p : short_points) {
        json.begin_object();
        json.value("design", p.design);
        json.value("window_bits", p.window_bits);
        json.value("windows", short_windows);
        json.value("mbit_per_s", p.mbps);
        json.value("close_us_per_window", p.close_us);
        json.value("sw_ops_per_window", p.ops_per_window);
        json.value("sw_cycles_per_window", p.cycles_per_window);
        json.value("golden_ops_match", p.golden_match);
        json.end_object();
    }
    json.end_array();
    json.end_object();

    const std::string path = bench_output_path("BENCH_stream.json");
    if (!write_bench_json(path, json)) {
        return 1;
    }
    std::printf("\nwrote %s\n", path.c_str());

    // Acceptance bar, on full runs only (smoke runs are too short to
    // time reliably): the dispatched span kernels must run at least 5x
    // the per-bit lane.  The golden software accounting is exact, so it
    // holds on every run.
    bool failed = false;
    for (const short_point& p : short_points) {
        if (!p.golden_match) {
            std::printf("GOLDEN FAILED: %s window 0 sw16 ops or cycles "
                        "differ from tests/support/sw_golden.hpp\n",
                        p.design.c_str());
            failed = true;
        }
    }
    if (!smoke_mode() && span_over_per_bit < 5.0) {
        std::printf("BAR FAILED: span/per-bit = %.3f < 5.0\n",
                    span_over_per_bit);
        failed = true;
    }
    if (failed) {
        return 1;
    }
    std::printf("span/per-bit   = %.3f (bar: >= 5.0%s)\n",
                span_over_per_bit,
                smoke_mode() ? ", not enforced in smoke mode" : "");
    return 0;
}
