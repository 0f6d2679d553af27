// Shared plumbing of the repository benchmark: command-line options,
// clocks, order statistics, the host-speed reference and the result
// record.
//
// The benchmark measures the platform through its public APIs only
// (core::monitor, core::population_monitor and the layers beneath them);
// every span it reports is timed here, around calls into those APIs, so
// nothing inside src/ is instrumented.
#pragma once

#include "core/design_config.hpp"
#include "sw16/cpu.hpp"
#include "trng/entropy_source.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

namespace core = otf::core;
namespace hw = otf::hw;
namespace sw16 = otf::sw16;
namespace trng = otf::trng;

/// Command-line options of one benchmark invocation.
struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Toy sizes (small buffers and populations) for the self-test.
    bool toy = false;
    /// Construct the system under test once, cold, and report the time.
    bool setup_only = false;
    /// Self-test hooks: flip one verdict the correctness check compares,
    /// and run one given population master seed without screening it.
    bool corrupt_verdict = false;
    std::optional<std::uint64_t> forced_master;
    std::uint32_t devices = 0; ///< population size override (0 = default)
};

// -- clocks -----------------------------------------------------------------

inline std::int64_t wall_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline std::int64_t cpu_ns(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time of every thread of this process.
inline std::int64_t process_cpu_ns() { return cpu_ns(CLOCK_PROCESS_CPUTIME_ID); }
/// CPU time of the calling thread.
inline std::int64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }

/// splitmix64 finaliser: derives independent sub-seeds from the workload
/// seed, so the same seed always gives the same inputs.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// -- order statistics -------------------------------------------------------

inline double median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile, q in (0, 1].
inline double percentile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size()) + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/// Host-speed reference.  The benchmark runs on shared hosts whose other
/// tenants slow a process down by up to 40% for seconds to minutes at a
/// time, with the process still on-CPU, so two raw rates differ with the
/// host's load more than with the program.  Every stretch of measurement
/// is therefore paired with one run of this fixed kernel -- building and
/// querying a 40-entry string-keyed std::map, the kind of work the
/// software pass does -- on `threads` threads at once, and rates are also
/// reported scaled to a host on which the kernel takes
/// ref_kernel_nominal_ms.  The kernel belongs to the benchmark, not to
/// the program, so it is the same on every commit.
/// \return the kernel's mean wall time per thread in milliseconds (a pool
/// runs at the mean speed of its cores, work stealing evens out the rest)
double ref_kernel_ms(unsigned threads);
inline constexpr double ref_kernel_nominal_ms = 10.0;

/// Median over stretches of a rate scaled to the nominal host speed.
inline double normalized_rate(const std::vector<double>& rates,
                              const std::vector<double>& ref_ms)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        v.push_back(rates[i] * ref_ms[i] / ref_kernel_nominal_ms);
    }
    return median(std::move(v));
}

/// Same for a cost per unit of work.
inline double normalized_cost(const std::vector<double>& costs,
                              const std::vector<double>& ref_ms)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < costs.size(); ++i) {
        v.push_back(costs[i] * ref_kernel_nominal_ms / ref_ms[i]);
    }
    return median(std::move(v));
}

/// Fixed-size log-linear latency histogram: 128 linear sub-buckets per
/// power of two (< 0.8% relative error).  Its footprint does not grow
/// with the sample count, so a faster program does not raise the
/// benchmark's own peak RSS.
class latency_histogram {
public:
    void add(std::int64_t ns)
    {
        const std::uint64_t v = ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
        ++counts_[bucket(v)];
        ++samples_;
        sum_ += static_cast<double>(v);
    }
    std::uint64_t samples() const { return samples_; }
    double mean_ns() const
    {
        return samples_ ? sum_ / static_cast<double>(samples_) : 0.0;
    }
    /// Nearest-rank percentile (bucket midpoint), q in (0, 1].
    double percentile_ns(double q) const
    {
        if (samples_ == 0) {
            return 0.0;
        }
        std::uint64_t rank = static_cast<std::uint64_t>(
            q * static_cast<double>(samples_) + 0.999999);
        rank = std::clamp<std::uint64_t>(rank, 1, samples_);
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < counts_.size(); ++b) {
            seen += counts_[b];
            if (seen >= rank) {
                return midpoint(b);
            }
        }
        return midpoint(counts_.size() - 1);
    }
    /// Samples at or above the q-th percentile's bucket (how many samples
    /// a percentile rests on).
    std::uint64_t beyond(double q) const
    {
        return samples_ - static_cast<std::uint64_t>(
                   q * static_cast<double>(samples_));
    }

private:
    static constexpr unsigned sub_bits = 7;
    static constexpr std::size_t sub = std::size_t{1} << sub_bits;
    static std::size_t bucket(std::uint64_t v)
    {
        if (v < sub) {
            return static_cast<std::size_t>(v);
        }
        const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
        const std::size_t lin = static_cast<std::size_t>(
            (v >> (e - sub_bits)) & (sub - 1));
        return (e - sub_bits + 1) * sub + lin;
    }
    static double midpoint(std::size_t b)
    {
        if (b < sub) {
            return static_cast<double>(b);
        }
        const std::size_t e = b / sub + sub_bits - 1;
        const double width = static_cast<double>(std::uint64_t{1}
                                                 << (e - sub_bits));
        const double lo = static_cast<double>(
            (std::uint64_t{1} << e)
            + static_cast<std::uint64_t>(b % sub) * (std::uint64_t{1}
                                                      << (e - sub_bits)));
        return lo + 0.5 * width;
    }

    std::array<std::uint64_t, (64 - sub_bits + 1) * sub> counts_{};
    std::uint64_t samples_ = 0;
    double sum_ = 0.0;
};

// -- results ------------------------------------------------------------------

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one workload run produced.  `metrics` holds the figures the
/// summary line carries (end-to-end, or per-layer when tracing);
/// `notes` holds context metrics that are printed with their unit but
/// do not apply to every workload; `context` records what ran.
struct result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<metric> metrics;
    std::vector<metric> notes;
    std::vector<std::pair<std::string, std::string>> context;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string name, double value, std::string unit)
    {
        notes.push_back({std::move(name), value, std::move(unit)});
    }
};

/// Peak resident set size of this process in MiB.
double peak_rss_mib();

// -- workloads ----------------------------------------------------------------

/// Wall seconds of one cold construction of the workload's system under
/// test (configuration, validation, critical values).
double setup_monitor(unsigned log2_n, core::tier tier);
double setup_population(const options& opt);

result run_monitor(const options& opt, unsigned log2_n, core::tier tier);
result run_population(const options& opt);

// -- layer probes shared by the workloads ---------------------------------------

/// Seeded ideal-source input: `bytes` of packed words, whole windows of
/// `window_bits` each.  Reports fill_words' cost as trng.fill_ns_per_kbit
/// through `fill_ns_per_kbit`.
std::vector<std::uint64_t> ideal_windows(std::uint64_t seed,
                                         std::size_t bytes,
                                         std::uint64_t window_bits,
                                         double& fill_ns_per_kbit);

/// Per-engine feed cost (hw.engine.<e>.ns_per_kbit) for every engine of
/// `design`: a monitor whose design is cut to one engine's tests is fed
/// the same windows on its default lane.  The cusum engine is part of
/// every block, so the other engines are reported net of it.
void measure_engines(const hw::block_config& design,
                     const std::vector<std::uint64_t>& words,
                     double budget_s, result& out);

} // namespace perfbench
