// Frequency-injection attack, caught on the fly.
//
// Scenario from the paper's Section II-B: a ring-oscillator TRNG is
// attacked through its power supply (Markettos & Moore, CHES 2009); the
// injected signal locks the oscillator, the accumulated jitter collapses,
// and the output becomes structured while staying roughly balanced.  The
// on-the-fly monitor watches every window; the attack shows up in the
// run- and pattern-sensitive tests within one window of its onset.
#include "base/env.hpp"
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "trng/ring_oscillator.hpp"

#include <cstdio>
#include <string>

int main()
{
    using namespace otf;

    const auto design = core::paper_design(16, core::tier::high);
    core::monitor monitor(design, 0.01);
    trng::ring_oscillator_source trng(7, {});

    std::printf("ring-oscillator TRNG under a frequency-injection attack\n");
    std::printf("design: %s, one row per %llu-bit window\n\n",
                design.name.c_str(),
                static_cast<unsigned long long>(design.n()));
    std::printf("%-7s %-10s %-8s %s\n", "window", "injection", "verdict",
                "failing tests");

    // Smoke runs keep three post-attack windows: enough to show detection.
    const unsigned total_windows = smoke_scaled(12u, 9u);
    unsigned detected_at = 0;
    for (unsigned window = 0; window < total_windows; ++window) {
        // The attacker switches the injection generator on at window 6 and
        // strengthens the lock as it tunes to the oscillator.
        double lock = 0.0;
        if (window >= 6) {
            lock = 0.80 + 0.05 * (window - 6);
            if (lock > 0.98) {
                lock = 0.98;
            }
        }
        trng.set_injection(lock);

        const auto report = monitor.test_window(trng);
        std::string failing;
        for (const auto& v : report.software.verdicts) {
            if (!v.pass) {
                failing += failing.empty() ? "" : ", ";
                failing += hw::to_string(v.id);
            }
        }
        if (!report.software.all_pass && detected_at == 0 && window >= 6) {
            detected_at = window;
        }
        std::printf("%-7u %-10.2f %-8s %s\n", window, lock,
                    report.software.all_pass ? "healthy" : "ATTACK",
                    failing.empty() ? "-" : failing.c_str());
    }

    if (detected_at > 0) {
        std::printf("\nattack switched on in window 6, flagged in window "
                    "%u -- detection latency %u window(s), i.e. within "
                    "%llu generated bits.\n",
                    detected_at, detected_at - 6 + 1,
                    static_cast<unsigned long long>(
                        (detected_at - 6 + 1) * design.n()));
    } else {
        std::printf("\nattack was not flagged -- unexpected; see "
                    "bench/detection_power for the sweep.\n");
    }
    std::printf("\nNote the platform reports *numeric* per-test verdicts, "
                "not one alarm wire:\ngrounding a single alarm signal (the "
                "fault attack the paper describes) has\nno equivalent "
                "here -- an attacker would have to forge every counter "
                "value\nconsistently.\n");
    return 0;
}
