// Single-monitor workloads: one core::monitor on a paper design, driven by
// one caller thread in a closed loop (the next window is handed over only
// after the previous window's verdicts return), over a pre-generated
// buffer of seeded ideal-source windows larger than the L2 cache.
//
// Untraced: window latency (first word in to verdicts out), verdict
// latency (monitor::finish_packed) and throughput.  Traced: the same loop
// split into feed and close, the close split into its layers on a
// standalone testing block and software pass, and every engine of the
// design measured alone.  Outputs are checked against a second monitor on
// the per-bit lane, the platform's ground-truth oracle.
#include "harness.hpp"

#include "core/critical_values.hpp"
#include "core/monitor.hpp"
#include "core/sw_routines.hpp"
#include "hw/testing_block.hpp"
#include "sw16/cpu.hpp"
#include "trng/sources.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr double alpha = 0.01;

/// A pre-generated run of whole windows the closed loop cycles through.
struct window_buffer {
    const std::vector<std::uint64_t>* words = nullptr;
    std::size_t window_words = 0;
    std::size_t windows = 0;

    const std::uint64_t* window(std::size_t i) const
    {
        return words->data() + i * window_words;
    }
};

/// What one stretch of the closed loop measured.
struct loop_stats {
    std::vector<double> slice_mbit;
    std::vector<double> slice_cpu_ns_per_bit;
    std::vector<double> slice_ref_ms; ///< ref_kernel_ms after each stretch
    latency_histogram window_ns;  ///< feed_packed + finish_packed
    latency_histogram verdict_ns; ///< finish_packed alone
    latency_histogram feed_ns;    ///< feed_packed alone
    std::uint64_t windows = 0;
    std::uint64_t failing_windows = 0; ///< any test rejected (not an error)
    std::uint64_t ops = 0;             ///< sw16 instructions
    std::uint64_t sw_cycles = 0;
};

/// Window reports kept for the oracle replay: window index -> report.
using sample_store = std::map<std::size_t, core::window_report>;

/// Drives `mon` through consecutive windows of `buf` for `seconds`,
/// split into `slices` equal stretches whose throughputs are reported
/// separately, each followed by one host-speed reference measurement
/// (ref_kernel_ms, outside the stretch).
/// Window `i` of the buffer is stored in `samples` on the first pass
/// when i % stride == 0.
void closed_loop(core::monitor& mon, const window_buffer& buf,
                 std::size_t& cursor, std::uint64_t& windows_done,
                 double seconds, unsigned slices, loop_stats& out,
                 sample_store& samples, std::size_t stride)
{
    const std::uint64_t n = mon.config().n();
    const std::int64_t slice_ns = static_cast<std::int64_t>(
        seconds * 1e9 / static_cast<double>(slices));
    for (unsigned s = 0; s < slices; ++s) {
        const std::int64_t cpu0 = process_cpu_ns();
        const std::int64_t start = wall_ns();
        const std::int64_t end = start + slice_ns;
        std::int64_t now = start;
        std::uint64_t windows = 0;
        while (now < end) {
            const std::uint64_t* w = buf.window(cursor);
            const std::int64_t t0 = wall_ns();
            mon.feed_packed(w, buf.window_words);
            const std::int64_t t1 = wall_ns();
            core::window_report rep = mon.finish_packed();
            now = wall_ns();
            out.feed_ns.add(t1 - t0);
            out.verdict_ns.add(now - t1);
            out.window_ns.add(now - t0);
            out.failing_windows += rep.software.all_pass ? 0 : 1;
            out.ops += rep.software.total_ops.total();
            out.sw_cycles += rep.sw_cycles;
            if (windows_done < buf.windows && cursor % stride == 0) {
                samples.emplace(cursor, std::move(rep));
            }
            ++windows;
            ++windows_done;
            cursor = cursor + 1 == buf.windows ? 0 : cursor + 1;
        }
        const double wall = static_cast<double>(now - start);
        const double cpu = static_cast<double>(process_cpu_ns() - cpu0);
        const double bits = static_cast<double>(windows * n);
        out.slice_mbit.push_back(bits / wall * 1e3);
        out.slice_cpu_ns_per_bit.push_back(cpu / bits);
        out.slice_ref_ms.push_back(ref_kernel_ms(1));
        out.windows += windows;
    }
}

bool same_report(const core::window_report& a, const core::window_report& b)
{
    if (a.software.all_pass != b.software.all_pass
        || a.software.verdicts.size() != b.software.verdicts.size()
        || a.sw_cycles != b.sw_cycles
        || a.generation_cycles != b.generation_cycles) {
        return false;
    }
    for (std::size_t i = 0; i < a.software.verdicts.size(); ++i) {
        const core::test_verdict& x = a.software.verdicts[i];
        const core::test_verdict& y = b.software.verdicts[i];
        if (x.id != y.id || x.name != y.name || x.pass != y.pass
            || x.statistic != y.statistic || x.bound != y.bound) {
            return false;
        }
    }
    return true;
}

/// Replays every stored window through a fresh monitor on the per-bit
/// lane and counts the windows whose verdicts, statistics or sw_cycles
/// differ.
std::uint64_t oracle_mismatches(const hw::block_config& cfg,
                                const core::critical_values& cv,
                                const window_buffer& buf,
                                sample_store& samples, bool corrupt)
{
    if (corrupt && !samples.empty()) {
        core::test_verdict& v =
            samples.begin()->second.software.verdicts.front();
        v.pass = !v.pass;
    }
    core::monitor oracle(cfg, cv);
    std::uint64_t mismatches = 0;
    for (const auto& [index, rep] : samples) {
        const core::window_report want = oracle.test_packed(
            buf.window(index), buf.window_words, core::ingest_lane::per_bit);
        if (!same_report(rep, want)) {
            if (mismatches < 4) {
                std::fprintf(stderr,
                             "oracle mismatch on window %zu of \"%s\"\n",
                             index, cfg.name.c_str());
            }
            ++mismatches;
        }
    }
    return mismatches;
}

/// The close path split into its layers on a standalone block and
/// software pass: testing_block::finish, then software_runner::run on
/// that block's register map with a sw16::soft_cpu.
void measure_close_split(const hw::block_config& cfg,
                         const core::critical_values& cv,
                         const window_buffer& buf, double budget_s,
                         double& finish_us, double& pass_us)
{
    hw::testing_block block(cfg);
    const core::software_runner runner(cfg, cv);
    sw16::soft_cpu cpu(16);
    latency_histogram finish_ns;
    latency_histogram pass_ns;
    const std::int64_t end =
        wall_ns() + static_cast<std::int64_t>(budget_s * 1e9);
    std::size_t cursor = 0;
    while (wall_ns() < end || finish_ns.samples() < 16) {
        block.feed_span(buf.window(cursor), cfg.n());
        const std::int64_t t0 = wall_ns();
        block.finish();
        const std::int64_t t1 = wall_ns();
        const core::software_result res = runner.run(block.registers(), cpu);
        const std::int64_t t2 = wall_ns();
        block.restart();
        finish_ns.add(t1 - t0);
        pass_ns.add(t2 - t1);
        if (res.verdicts.empty()) {
            throw std::logic_error("software pass returned no verdicts");
        }
        cursor = cursor + 1 == buf.windows ? 0 : cursor + 1;
    }
    finish_us = finish_ns.mean_ns() / 1e3;
    pass_us = pass_ns.mean_ns() / 1e3;
}

} // namespace

std::vector<std::uint64_t> ideal_windows(std::uint64_t seed,
                                         std::size_t bytes,
                                         std::uint64_t window_bits,
                                         double& fill_ns_per_kbit)
{
    const std::size_t window_words = window_bits / 64;
    const std::size_t windows =
        std::max<std::size_t>(1, bytes / 8 / window_words);
    std::vector<std::uint64_t> words(windows * window_words);
    trng::ideal_source source(seed);
    // Fill one window per call, as a monitor would draw it.
    const std::int64_t t0 = wall_ns();
    for (std::size_t w = 0; w < windows; ++w) {
        source.fill_words(words.data() + w * window_words, window_words);
    }
    const double ns = static_cast<double>(wall_ns() - t0);
    fill_ns_per_kbit = ns / (static_cast<double>(words.size()) * 64 / 1e3);
    return words;
}

void measure_engines(const hw::block_config& design,
                     const std::vector<std::uint64_t>& words,
                     double budget_s, result& out)
{
    struct probe {
        const char* name;
        std::vector<hw::test_id> tests;
    };
    using hw::test_id;
    const std::vector<probe> probes = {
        {"cusum", {test_id::frequency, test_id::cumulative_sums}},
        {"block_frequency", {test_id::block_frequency}},
        {"runs", {test_id::runs}},
        {"longest_run", {test_id::longest_run}},
        {"non_overlapping", {test_id::non_overlapping_template}},
        {"overlapping", {test_id::overlapping_template}},
        {"serial", {test_id::serial, test_id::approximate_entropy}},
    };

    struct engine_run {
        const char* name;
        std::unique_ptr<core::monitor> mon;
        std::size_t cursor = 0;
        std::vector<double> ns_per_kbit;
    };
    std::vector<engine_run> runs;
    for (const probe& p : probes) {
        hw::block_config cut = design;
        cut.tests = hw::test_set();
        for (const test_id id : p.tests) {
            if (design.tests.has(id)) {
                cut.tests.with(id);
            }
        }
        if (cut.tests.count() == 0) {
            continue;
        }
        cut.name = design.name + " [" + p.name + "]";
        runs.push_back({p.name,
                        std::make_unique<core::monitor>(
                            cut, core::compute_critical_values(cut, alpha)),
                        0,
                        {}});
    }

    // Engines take turns in short stretches, so host noise spreads over
    // all of them instead of landing on one; each reports the median of
    // its stretches.
    const window_buffer buf{&words, design.n() / 64,
                            words.size() / (design.n() / 64)};
    constexpr unsigned rounds = 7;
    const std::int64_t stretch_ns = static_cast<std::int64_t>(
        budget_s * 1e9 / static_cast<double>(rounds * runs.size()));
    for (unsigned r = 0; r < rounds; ++r) {
        for (engine_run& e : runs) {
            const std::int64_t end = wall_ns() + stretch_ns;
            double fed_ns = 0.0;
            std::uint64_t windows = 0;
            while (wall_ns() < end || windows < 4) {
                const std::int64_t t0 = wall_ns();
                e.mon->feed_packed(buf.window(e.cursor), buf.window_words);
                fed_ns += static_cast<double>(wall_ns() - t0);
                e.mon->finish_packed();
                ++windows;
                e.cursor = e.cursor + 1 == buf.windows ? 0 : e.cursor + 1;
            }
            e.ns_per_kbit.push_back(
                fed_ns / (static_cast<double>(windows * design.n()) / 1e3));
        }
    }
    double cusum = 0.0;
    for (const engine_run& e : runs) {
        const double own = median(e.ns_per_kbit);
        if (std::string(e.name) == "cusum") {
            cusum = own;
        }
        out.add(std::string("hw.engine.") + e.name + ".ns_per_kbit",
                std::string(e.name) == "cusum" ? own : own - cusum,
                "ns/kbit");
    }
}

double setup_monitor(unsigned log2_n, core::tier tier)
{
    const std::int64_t t0 = wall_ns();
    const core::monitor mon(core::paper_design(log2_n, tier), alpha);
    const std::int64_t t1 = wall_ns();
    if (mon.config().n() == 0) {
        throw std::logic_error("empty design");
    }
    return static_cast<double>(t1 - t0) / 1e9;
}

result run_monitor(const options& opt, unsigned log2_n, core::tier tier)
{
    result r;
    const hw::block_config cfg = core::paper_design(log2_n, tier);
    r.context.emplace_back("design", cfg.name);

    // Set-up: the input buffer (16 MiB, twice the 4 x 2 MiB of L2 of the
    // 4-core host the benchmark was tuned on) and the system under test.
    const std::size_t bytes = opt.toy ? (std::size_t{256} << 10)
                                      : (std::size_t{16} << 20);
    double fill_ns_per_kbit = 0.0;
    const std::vector<std::uint64_t> words =
        ideal_windows(mix_seed(opt.seed, 1), bytes, cfg.n(),
                      fill_ns_per_kbit);
    const window_buffer buf{&words, cfg.n() / 64,
                            words.size() / (cfg.n() / 64)};
    core::monitor mon(cfg, alpha);

    const std::size_t oracle_windows =
        opt.toy ? 16 : (cfg.n() >= 65536 ? 48 : 4096);
    const std::size_t stride =
        std::max<std::size_t>(1, buf.windows / oracle_windows);
    sample_store samples;
    std::size_t cursor = 0;
    std::uint64_t done = 0;

    // Warm caches, branch predictors and allocator pools before timing.
    loop_stats warm;
    closed_loop(mon, buf, cursor, done, std::min(1.0, 0.1 * opt.seconds), 1,
                warm, samples, stride);

    // Quarter-second stretches.
    const auto slices_for = [](double s) {
        return std::max(4u, static_cast<unsigned>(s * 4));
    };
    loop_stats main;
    loop_stats traced;
    if (!opt.trace) {
        closed_loop(mon, buf, cursor, done, opt.seconds,
                    slices_for(opt.seconds), main, samples, stride);
    } else {
        // The untraced stretch gives the baseline throughput the traced
        // stretch's overhead is measured against.
        closed_loop(mon, buf, cursor, done, 0.35 * opt.seconds,
                    slices_for(0.35 * opt.seconds), main, samples, stride);
        closed_loop(mon, buf, cursor, done, 0.35 * opt.seconds,
                    slices_for(0.35 * opt.seconds), traced, samples, stride);
    }

    const std::uint64_t mismatches = oracle_mismatches(
        cfg, mon.bounds(), buf, samples, opt.corrupt_verdict);
    r.attempted = warm.windows + main.windows + traced.windows;
    r.failed = mismatches;
    r.note("oracle_windows", static_cast<double>(samples.size()), "count");
    r.note("error_frac",
           static_cast<double>(r.failed) / static_cast<double>(r.attempted),
           "ratio");

    const double mbit = normalized_rate(main.slice_mbit, main.slice_ref_ms);
    if (!opt.trace) {
        r.add("norm_mbit_per_s", mbit, "Mbit/s");
        r.add("norm_cpu_ns_per_bit",
              normalized_cost(main.slice_cpu_ns_per_bit, main.slice_ref_ms),
              "ns/bit");
        r.note("mbit_per_s", median(main.slice_mbit), "Mbit/s");
        r.note("cpu_ns_per_bit", median(main.slice_cpu_ns_per_bit),
               "ns/bit");
        r.note("ref_kernel_ms", median(main.slice_ref_ms), "ms");
        r.add("peak_rss_mib", peak_rss_mib(), "MiB");
        r.note("window_us_p50", main.window_ns.percentile_ns(0.50) / 1e3,
               "us");
        r.note("window_us_p99", main.window_ns.percentile_ns(0.99) / 1e3,
               "us");
        r.note("verdict_us_p50", main.verdict_ns.percentile_ns(0.50) / 1e3,
               "us");
        r.note("verdict_us_p99", main.verdict_ns.percentile_ns(0.99) / 1e3,
               "us");
        r.note("window_us_mean", main.window_ns.mean_ns() / 1e3, "us");
        r.note("windows_timed", static_cast<double>(main.windows), "count");
        r.note("windows_beyond_p99",
               static_cast<double>(main.window_ns.beyond(0.99)), "count");
        r.note("rejected_window_frac",
               static_cast<double>(main.failing_windows)
                   / static_cast<double>(main.windows),
               "ratio");
        return r;
    }

    const double feed_us = traced.feed_ns.mean_ns() / 1e3;
    const double close_us = traced.verdict_ns.mean_ns() / 1e3;
    r.add("core.monitor.feed_us", feed_us, "us");
    r.add("core.monitor.close_us", close_us, "us");
    r.add("core.monitor.close_share", close_us / (feed_us + close_us),
          "ratio");
    r.add("trace_overhead_frac",
          1.0 - normalized_rate(traced.slice_mbit, traced.slice_ref_ms) / mbit,
          "ratio");
    r.add("sw16.ops_per_window",
          static_cast<double>(traced.ops)
              / static_cast<double>(traced.windows),
          "count");
    r.add("sw16.sw_cycles_per_window",
          static_cast<double>(traced.sw_cycles)
              / static_cast<double>(traced.windows),
          "count");
    r.add("trng.fill_ns_per_kbit", fill_ns_per_kbit, "ns/kbit");
    r.note("untraced_window_us_mean", main.window_ns.mean_ns() / 1e3, "us");

    // Layer isolation gets the remaining 30% of the budget: the close
    // split a third, the engines the rest.
    double finish_us = 0.0;
    double pass_us = 0.0;
    measure_close_split(cfg, mon.bounds(), buf, 0.1 * opt.seconds, finish_us,
                        pass_us);
    r.add("hw.block.finish_us", finish_us, "us");
    r.add("core.sw_routines.pass_us", pass_us, "us");
    r.add("core.monitor.close_other_us", close_us - finish_us - pass_us,
          "us");
    measure_engines(cfg, words, 0.2 * opt.seconds, r);
    const auto serial = std::find_if(
        r.metrics.begin(), r.metrics.end(), [](const metric& m) {
            return m.name == "hw.engine.serial.ns_per_kbit";
        });
    if (serial != r.metrics.end()) {
        const double serial_us =
            serial->value * static_cast<double>(cfg.n()) / 1e6;
        r.add("hw.engine.serial.window_share",
              serial_us / (feed_us + close_us), "ratio");
    }
    return r;
}

} // namespace perfbench
