// Detection-power characterization: the motivation experiments behind
// on-the-fly testing (Section II-B of the paper).
//
// Sweeps defect strength for four defect classes -- supply-manipulation
// bias, correlation (sticky sampling), frequency-injection locking of a
// ring-oscillator TRNG, and intermittent bursts -- and reports the window
// failure rate of the 65536-bit high design at alpha = 0.01, plus which
// test detects each defect first.  A healthy source calibrates the
// type-1 row.
#include "base/env.hpp"
#include "core/design_config.hpp"
#include "core/fleet_monitor.hpp"
#include "core/sp80090b.hpp"
#include "hw/health_tests.hpp"
#include "trng/ring_oscillator.hpp"
#include "trng/sources.hpp"

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

using namespace otf;

namespace {

struct sweep_result {
    double failure_rate = 0.0;
    // "-" sentinel set at construction: assigning a short literal after the
    // fact trips GCC 12's -Wrestrict false positive (PR105651) under -Werror.
    std::string dominant_test{"-"};
};

/// One fresh channel at `cfg` over `windows` windows of `src`.
sweep_result measure(const core::fleet_config& cfg,
                     const core::critical_values& cv,
                     trng::entropy_source& src, unsigned windows)
{
    const core::channel_report ch =
        core::run_fleet_channel(cfg, cv, std::nullopt, src, 0, windows);
    sweep_result r;
    r.failure_rate = static_cast<double>(ch.failures) / windows;
    std::uint64_t best = 0;
    for (const hw::test_id id : hw::all_tests) {
        if (ch.failures_by_test[id] > best) {
            best = ch.failures_by_test[id];
            r.dominant_test = hw::to_string(id);
        }
    }
    return r;
}

} // namespace

int main()
{
    core::fleet_config channel;
    channel.block = core::paper_design(16, core::tier::high);
    channel.alpha = 0.01;
    channel.validate();
    const hw::block_config& cfg = channel.block;
    const core::critical_values cv =
        core::compute_critical_values(cfg, channel.alpha);
    const unsigned windows = smoke_scaled(24u, 6u);

    std::printf("Detection power of %s at alpha = 0.01, %u windows per "
                "point\n\n",
                cfg.name.c_str(), windows);
    std::printf("%-34s %14s %24s\n", "source", "fail rate",
                "dominant detector");

    {
        trng::ideal_source src(1);
        const auto r = measure(channel, cv, src, windows);
        std::printf("%-34s %13.0f%% %24s   (type-1 calibration)\n",
                    "ideal", 100.0 * r.failure_rate,
                    r.dominant_test.c_str());
    }

    std::printf("\nbias sweep (supply manipulation):\n");
    for (const double p : {0.505, 0.51, 0.52, 0.55}) {
        trng::biased_source src(7, p);
        const auto r = measure(channel, cv, src, windows);
        std::printf("%-34s %13.0f%% %24s\n", src.name().c_str(),
                    100.0 * r.failure_rate, r.dominant_test.c_str());
    }

    std::printf("\ncorrelation sweep (sticky sampling):\n");
    for (const double q : {0.505, 0.51, 0.52, 0.55}) {
        trng::markov_source src(8, q);
        const auto r = measure(channel, cv, src, windows);
        std::printf("%-34s %13.0f%% %24s\n", src.name().c_str(),
                    100.0 * r.failure_rate, r.dominant_test.c_str());
    }

    std::printf("\nfrequency-injection sweep (Markettos-Moore attack on a "
                "ring-oscillator TRNG):\n");
    for (const double lock : {0.0, 0.5, 0.8, 0.9, 0.95}) {
        trng::ring_oscillator_source src(9, {});
        src.set_injection(lock);
        const auto r = measure(channel, cv, src, windows);
        std::printf("%-34s %13.0f%% %24s\n", src.name().c_str(),
                    100.0 * r.failure_rate, r.dominant_test.c_str());
    }

    std::printf("\nburst-failure sweep (intermittent faults):\n");
    for (const double rate : {0.0001, 0.0005, 0.002}) {
        trng::burst_failure_source src(10, rate, 128);
        char label[64];
        std::snprintf(label, sizeof label, "bursts(rate=%.4f,len=128)",
                      rate);
        const auto r = measure(channel, cv, src, windows);
        std::printf("%-34s %13.0f%% %24s\n", label,
                    100.0 * r.failure_rate, r.dominant_test.c_str());
    }

    std::printf("\nexpected shape: failure rate rises from ~alpha to 100%% "
                "with defect strength;\nbias is caught by "
                "frequency/cusum, correlation by runs/serial, locking by\n"
                "runs and the template tests, bursts by longest-run.\n");

    // ---- SP 800-90B continuous tests: detection latency in bits ----------
    std::printf("\ndetection latency of a total failure (stuck-at), in "
                "bits after onset:\n");
    {
        hw::repetition_count_hw rct(core::rct_cutoff(1.0));
        std::uint64_t bits = 0;
        while (!rct.alarm()) {
            rct.consume(true, bits++);
        }
        std::printf("  SP 800-90B repetition count:  %6llu bits\n",
                    static_cast<unsigned long long>(bits));
    }
    {
        hw::adaptive_proportion_hw apt(10, core::apt_cutoff(1024, 1.0));
        std::uint64_t bits = 0;
        while (!apt.alarm()) {
            apt.consume(true, bits++);
        }
        std::printf("  SP 800-90B adaptive proportion: %4llu bits\n",
                    static_cast<unsigned long long>(bits));
    }
    std::printf("  NIST-battery window verdict:   %6llu bits (one full "
                "window)\n",
                static_cast<unsigned long long>(cfg.n()));
    std::printf("the continuous tests close the gap the window tests "
                "leave: a dead source is\ncut off ~3000x sooner, while "
                "the battery finds the subtle defects the cheap\ntests "
                "cannot.\n");
    return 0;
}
