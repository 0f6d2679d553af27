// Stream throughput bench: the decoupled producer → ring → pump pipeline
// against the fused generate-then-test loop it replaced.
//
//   $ ./bench_stream_throughput            # full run (enforces the bar)
//   $ OTF_SMOKE=1 ./bench_stream_throughput  # ctest / verify.sh smoke entry
//
// Six measurements on the n = 65536 high-tier design (all nine tests,
// double-buffered):
//
//   1. fused loop      -- the pre-pipeline shape: one thread alternating
//      fill_words and the default (span) lane's window test, the
//      baseline the pipeline must not regress; the same loop on the
//      per-bit oracle lane is timed next to it;
//   2. span kernels    -- the fused loop swept over the base/bits.hpp
//      kernel variants (reference / portable / simd); the acceptance bar
//      is >= 5x the per-bit lane for the dispatched (simd-or-portable)
//      variant on full runs;
//   3. streamed channel -- core::word_producer on its own thread, a
//      two-window base::ring_buffer, core::window_pump on the caller;
//      the acceptance bar is >= 0.9x the fused loop (full runs exit
//      nonzero below it; generation overlaps analysis, so at one channel
//      the pipeline should roughly break even and win as generation
//      cost grows);
//   4. streamed fleet  -- core::fleet_monitor (now pipeline-backed) over
//      1..C channels, reporting aggregate Mbit/s plus the per-channel
//      ring backpressure stats that tell which stage bounds throughput;
//   5. batch sweep     -- the streamed channel at generation batches from
//      a quarter window to two windows (a four-window ring), showing
//      where batching stops paying;
//   6. generation lane -- every adversarial source model at severity 1.0
//      over an ideal inner, per-word lane (fill_words_scalar) against
//      the batched lane (fill_words); the acceptance bar is >= 3x
//      batched-over-scalar for every model on full runs.  The two lanes
//      are bit-exact (tests/test_generation_oracle.cpp); this times the
//      producer side the zero-copy ring path exposes.
//
// Equivalence is proven separately (tests/test_stream.cpp,
// tests/test_kernel_oracle.cpp and tests/test_generation_oracle.cpp);
// this is timing only.  Results go to BENCH_stream.json (schema
// "otf-stream-bench/4", docs/BENCHMARKS.md; OTF_BENCH_DIR overrides the
// output directory).
#include "base/bits.hpp"
#include "base/env.hpp"
#include "base/json.hpp"
#include "base/ring_buffer.hpp"
#include "core/design_config.hpp"
#include "core/fleet_monitor.hpp"
#include "core/monitor.hpp"
#include "core/stream.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
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

    // Best-of-N timing: both single-channel measurements repeat and keep
    // the fastest pass, so scheduler noise on a loaded machine cannot
    // flip the acceptance ratio (full runs only; smoke proves the
    // plumbing).
    const unsigned reps = smoke_scaled(3u, 1u);

    // 1. Fused loop: the pre-pipeline fleet channel body -- generate a
    // window, test it, repeat, all on one thread.
    double fused_mwps = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        core::monitor mon(design, 0.01);
        trng::ideal_source src(2025);
        std::vector<std::uint64_t> buffer(nwords);
        const auto t0 = clock_type::now();
        for (std::uint64_t w = 0; w < windows; ++w) {
            src.fill_words(buffer.data(), nwords);
            mon.test_packed(buffer.data(), nwords);
        }
        const double s = seconds_since(t0);
        fused_mwps = std::max(fused_mwps, mwords_per_s(total_words, s));
    }
    std::printf("fused loop      : %8.2f Mwords/s\n", fused_mwps);

    // The same loop on the per-bit oracle lane: the baseline the span
    // kernels are measured against.
    double per_bit_mwps = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        core::monitor mon(design, 0.01);
        trng::ideal_source src(2025);
        std::vector<std::uint64_t> buffer(nwords);
        const auto t0 = clock_type::now();
        for (std::uint64_t w = 0; w < windows; ++w) {
            src.fill_words(buffer.data(), nwords);
            mon.test_packed(buffer.data(), nwords,
                            core::ingest_lane::per_bit);
        }
        per_bit_mwps = std::max(per_bit_mwps,
                                mwords_per_s(total_words, seconds_since(t0)));
    }
    std::printf("per-bit lane    : %8.2f Mwords/s\n", per_bit_mwps);

    // 2. Span kernels: the same fused loop once per kernel variant.  The
    // variant the runtime dispatch picks on its own (simd when compiled
    // in, portable otherwise) carries the acceptance bar.
    struct kernel_point {
        const char* variant;
        bool dispatched; // the variant runtime dispatch picks by default
        double mwps;
    };
    const bits::kernel_variant best = bits::default_kernel_variant();
    const std::pair<const char*, bits::kernel_variant> variants[] = {
        {"reference", bits::kernel_variant::reference},
        {"portable", bits::kernel_variant::portable},
        {"simd", bits::kernel_variant::simd},
    };
    std::vector<kernel_point> kernels;
    double span_mwps = 0.0;
    for (const auto& [vname, variant] : variants) {
        bits::set_kernel_variant(variant);
        double mwps = 0.0;
        for (unsigned r = 0; r < reps; ++r) {
            core::monitor mon(design, 0.01);
            trng::ideal_source src(2025);
            std::vector<std::uint64_t> buffer(nwords);
            const auto t0 = clock_type::now();
            for (std::uint64_t w = 0; w < windows; ++w) {
                src.fill_words(buffer.data(), nwords);
                mon.test_packed(buffer.data(), nwords);
            }
            const double s = seconds_since(t0);
            mwps = std::max(mwps, mwords_per_s(total_words, s));
        }
        const bool dispatched = variant == best;
        if (dispatched) {
            span_mwps = mwps;
        }
        kernels.push_back({vname, dispatched, mwps});
        std::printf("span lane (%-9s): %8.2f Mwords/s   (%.2fx per-bit "
                    "lane%s)\n",
                    vname, mwps, mwps / per_bit_mwps,
                    dispatched ? ", dispatched" : "");
    }
    bits::set_kernel_variant(best);
    const double span_over_per_bit = span_mwps / per_bit_mwps;

    // 3. Streamed channel: producer thread -> ring -> pump, both hops
    // zero-copy (generation writes ring storage, the pump feeds ring
    // spans straight into the testing block).
    double streamed_mwps = 0.0;
    core::stream_stats channel_stats;
    std::uint64_t zero_copy_windows = 0;
    for (unsigned r = 0; r < reps; ++r) {
        core::monitor mon(design, 0.01);
        trng::ideal_source src(2025);
        const std::size_t ring_words = core::default_ring_words(nwords);
        base::ring_buffer ring(ring_words);
        core::producer_options opts;
        opts.total_words = total_words;
        opts.batch_words = core::default_batch_words(nwords, ring_words);
        core::word_producer producer(src, ring, opts);
        core::window_pump pump(ring, mon);
        const auto t0 = clock_type::now();
        core::run_pipeline(producer, pump, nullptr, windows);
        const double s = seconds_since(t0);
        const double mwps = mwords_per_s(total_words, s);
        if (mwps > streamed_mwps) {
            streamed_mwps = mwps;
            channel_stats = core::snapshot(ring);
            zero_copy_windows = pump.zero_copy_windows();
        }
    }
    std::printf("streamed channel: %8.2f Mwords/s   (%.2fx fused; "
                "ring high-water %zu/%zu words, stalls p=%llu c=%llu)\n",
                streamed_mwps, streamed_mwps / fused_mwps,
                channel_stats.max_occupancy, channel_stats.ring_capacity,
                static_cast<unsigned long long>(
                    channel_stats.producer_stalls),
                static_cast<unsigned long long>(
                    channel_stats.consumer_stalls));
    const double ratio = streamed_mwps / fused_mwps;

    // 4. Streamed fleet scaling.
    const unsigned max_channels = smoke_scaled(8u, 2u);
    std::printf("\n%-10s %12s %12s %16s\n", "channels", "Mbit/s",
                "scaling", "max stalls p/c");
    struct scaling_point {
        unsigned channels;
        double mbps;
        double scaling;
        std::uint64_t worst_producer_stalls;
        std::uint64_t worst_consumer_stalls;
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
        scaling_point p{channels, mbps, mbps / one_channel_mbps, 0, 0};
        for (const core::channel_report& ch : report.channels) {
            if (ch.stream.producer_stalls > p.worst_producer_stalls) {
                p.worst_producer_stalls = ch.stream.producer_stalls;
            }
            if (ch.stream.consumer_stalls > p.worst_consumer_stalls) {
                p.worst_consumer_stalls = ch.stream.consumer_stalls;
            }
        }
        std::printf("%-10u %12.1f %11.2fx %8llu/%llu\n", channels, mbps,
                    p.scaling,
                    static_cast<unsigned long long>(
                        p.worst_producer_stalls),
                    static_cast<unsigned long long>(
                        p.worst_consumer_stalls));
        scaling.push_back(p);
    }

    // 5. Batch sweep: the streamed channel on a four-window ring at
    // generation batches from a quarter window up to two windows -- the
    // batched lane's cost per word falls with batch size, so this shows
    // where lifting the old one-window cap pays.
    struct sweep_point {
        std::size_t batch_words;
        std::size_t ring_words;
        double mwps;
    };
    std::vector<sweep_point> sweep;
    const std::size_t sweep_ring = 4 * nwords;
    std::printf("\nbatch sweep (ring %zu words):\n", sweep_ring);
    for (const std::size_t batch :
         {nwords / 4, nwords / 2, nwords, 2 * nwords}) {
        double mwps = 0.0;
        for (unsigned r = 0; r < reps; ++r) {
            core::monitor mon(design, 0.01);
            trng::ideal_source src(2025);
            base::ring_buffer ring(sweep_ring);
            core::producer_options opts;
            opts.total_words = total_words;
            opts.batch_words = batch;
            core::word_producer producer(src, ring, opts);
            core::window_pump pump(ring, mon);
            const auto t0 = clock_type::now();
            core::run_pipeline(producer, pump, nullptr, windows);
            mwps = std::max(
                mwps, mwords_per_s(total_words, seconds_since(t0)));
        }
        std::printf("  batch %6zu words: %8.2f Mwords/s\n", batch, mwps);
        sweep.push_back({batch, sweep_ring, mwps});
    }

    // 6. Generation lane: every adversarial source model at full
    // severity over an ideal inner, per-word lane against the batched
    // lane.  Bit-exactness of the two lanes is the oracle test's job
    // (tests/test_generation_oracle.cpp); this times them.
    struct generation_point {
        const char* model;
        double scalar_mwps;
        double batched_mwps;
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
    // rtn and bias_drift are parameterized to exercise their batched
    // algorithms rather than the shared per-word RNG draw chains, which
    // bit-exactness forbids shortening: long dwells give the run-length
    // expansion whole spans per toggle (default 256-bit dwells spend most
    // of the time re-drawing dwell lengths in both lanes), and a pinned
    // half-rail walk holds the drift at q = 128 where the mask fold is
    // the single-draw steady state (the default walk oscillates through
    // odd q values costing 8 shared draws per word in both lanes).
    const gen_model gen_models[] = {
        {"rtn",
         [&] {
             trng::rtn_parameters p;
             p.dwell_on = 8192.0;
             return std::make_unique<trng::rtn_source>(inner(), 11, p);
         }},
        {"bias_drift",
         [&] {
             trng::bias_drift_parameters p;
             p.p_out = 1.0;
             p.p_back = 0.0;
             p.max_shift_q = 128;
             return std::make_unique<trng::bias_drift_source>(inner(), 12,
                                                              p);
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
    const auto time_generation = [&](trng::source_model& model,
                                     bool batched) {
        std::vector<std::uint64_t> buf(gen_batch);
        double best = 0.0;
        for (unsigned r = 0; r < reps; ++r) {
            const auto t0 = clock_type::now();
            for (std::uint64_t made = 0; made < gen_words;
                 made += gen_batch) {
                if (batched) {
                    model.fill_words(buf.data(), gen_batch);
                } else {
                    model.fill_words_scalar(buf.data(), gen_batch);
                }
            }
            best = std::max(best,
                            mwords_per_s(gen_words, seconds_since(t0)));
        }
        return best;
    };
    std::vector<generation_point> generation;
    double generation_min_speedup = 0.0;
    std::printf("\ngeneration lane (severity 1.0, batch %zu words, "
                "%llu words/model):\n",
                gen_batch, static_cast<unsigned long long>(gen_words));
    for (const gen_model& gm : gen_models) {
        generation_point p{gm.name, 0.0, 0.0};
        {
            const auto model = gm.make();
            p.scalar_mwps = time_generation(*model, false);
        }
        {
            const auto model = gm.make();
            p.batched_mwps = time_generation(*model, true);
        }
        const double speedup = p.batched_mwps / p.scalar_mwps;
        if (generation.empty() || speedup < generation_min_speedup) {
            generation_min_speedup = speedup;
        }
        generation.push_back(p);
        std::printf("  %-18s scalar %8.2f  batched %8.2f Mwords/s "
                    "(%.2fx)\n",
                    gm.name, p.scalar_mwps, p.batched_mwps, speedup);
    }

    json_writer json;
    json.begin_object();
    json.value("schema", "otf-stream-bench/4");
    json.value("smoke", smoke_mode());
    json.value("design", design.name);
    json.value("window_bits", design.n());
    json.value("words_per_window", static_cast<std::uint64_t>(nwords));
    json.value("windows", windows);
    json.value("hardware_concurrency",
               std::thread::hardware_concurrency());
    json.value("simd_compiled", bits::simd_compiled());
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
    json.value("streamed_mwords_per_s", streamed_mwps);
    json.value("streamed_over_fused", ratio);
    json.value("zero_copy_windows", zero_copy_windows);
    json.begin_object("channel_ring");
    json.value("capacity_words",
               static_cast<std::uint64_t>(channel_stats.ring_capacity));
    json.value("max_occupancy_words",
               static_cast<std::uint64_t>(channel_stats.max_occupancy));
    json.value("producer_stalls", channel_stats.producer_stalls);
    json.value("consumer_stalls", channel_stats.consumer_stalls);
    json.end_object();
    json.begin_array("fleet");
    for (const scaling_point& p : scaling) {
        json.begin_object();
        json.value("channels", p.channels);
        json.value("mbps", p.mbps);
        json.value("scaling", p.scaling);
        json.value("worst_producer_stalls", p.worst_producer_stalls);
        json.value("worst_consumer_stalls", p.worst_consumer_stalls);
        json.end_object();
    }
    json.end_array();
    json.begin_array("batch_sweep");
    for (const sweep_point& p : sweep) {
        json.begin_object();
        json.value("batch_words",
                   static_cast<std::uint64_t>(p.batch_words));
        json.value("ring_words", static_cast<std::uint64_t>(p.ring_words));
        json.value("mwords_per_s", p.mwps);
        json.end_object();
    }
    json.end_array();
    json.begin_array("generation");
    for (const generation_point& p : generation) {
        json.begin_object();
        json.value("model", p.model);
        json.value("scalar_mwords_per_s", p.scalar_mwps);
        json.value("batched_mwords_per_s", p.batched_mwps);
        json.value("speedup", p.batched_mwps / p.scalar_mwps);
        json.end_object();
    }
    json.end_array();
    json.value("generation_min_speedup", generation_min_speedup);
    json.end_object();

    const std::string path = bench_output_path("BENCH_stream.json");
    std::ofstream out(path);
    out << json.str();
    out.flush();
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf("\nwrote %s\n", path.c_str());

    // Acceptance bars.  The timing bars run on full runs only (smoke
    // runs are too short to time reliably): the decoupled pipeline must
    // stay within 10% of the fused loop, the dispatched span kernels
    // must run at least 5x the per-bit lane, and the batched generation
    // lane must at least triple the per-word lane for every model.  The
    // zero-copy check is deterministic (an untapped pump takes the
    // zero-copy path for every window), so it holds in smoke mode too.
    bool failed = false;
    if (zero_copy_windows != windows) {
        std::printf("BAR FAILED: zero_copy_windows = %llu, expected "
                    "%llu (untapped pump must take the zero-copy path "
                    "for every window)\n",
                    static_cast<unsigned long long>(zero_copy_windows),
                    static_cast<unsigned long long>(windows));
        failed = true;
    }
    if (!smoke_mode() && ratio < 0.9) {
        std::printf("BAR FAILED: streamed/fused = %.3f < 0.9\n", ratio);
        failed = true;
    }
    if (!smoke_mode() && span_over_per_bit < 5.0) {
        std::printf("BAR FAILED: span/per-bit = %.3f < 5.0\n",
                    span_over_per_bit);
        failed = true;
    }
    if (!smoke_mode() && generation_min_speedup < 3.0) {
        std::printf("BAR FAILED: generation batched/scalar = %.3f < 3.0 "
                    "(worst model)\n",
                    generation_min_speedup);
        failed = true;
    }
    if (failed) {
        return 1;
    }
    std::printf("streamed/fused = %.3f (bar: >= 0.9%s)\n", ratio,
                smoke_mode() ? ", not enforced in smoke mode" : "");
    std::printf("span/per-bit   = %.3f (bar: >= 5.0%s)\n",
                span_over_per_bit,
                smoke_mode() ? ", not enforced in smoke mode" : "");
    std::printf("generation     = %.3fx batched/scalar, worst model "
                "(bar: >= 3.0%s)\n",
                generation_min_speedup,
                smoke_mode() ? ", not enforced in smoke mode" : "");
    return 0;
}
