// Laboratory-style characterization of a TRNG design.
//
// Before committing an entropy source to silicon, a designer sweeps its
// physical parameters and checks the statistical quality margin.  This
// example characterizes the ring-oscillator TRNG model across its jitter
// budget: for each design point it runs the offline 15-test battery
// (including the tests the on-chip hardware cannot afford) and the
// platform's own on-the-fly monitor, reporting the minimum jitter at
// which the design is sound -- and how much margin the chosen operating
// point has before the on-the-fly tests start to object.
#include "base/env.hpp"
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "nist/battery.hpp"
#include "trng/ring_oscillator.hpp"

#include <cstdio>
#include <vector>

using namespace otf;

int main()
{
    const auto cfg = core::paper_design(16, core::tier::high);

    std::printf("ring-oscillator TRNG characterization "
                "(sampling divider 1024, window %llu bits)\n\n",
                static_cast<unsigned long long>(cfg.n()));
    std::printf("%-14s %-16s %-18s %-14s\n", "jitter/period",
                "sigma per sample", "offline battery", "on-the-fly");

    const std::vector<double> jitter_sweep = smoke_scaled(
        std::vector<double>{0.002, 0.004, 0.008, 0.012, 0.016, 0.024},
        std::vector<double>{0.004, 0.016});
    for (const double jitter : jitter_sweep) {
        trng::ring_oscillator_source::parameters params;
        params.jitter_per_period = jitter;
        trng::ring_oscillator_source source(0xD0E, params);

        const bit_sequence seq = source.generate(cfg.n());
        const auto offline = nist::run_battery(seq, 0.01);

        core::monitor monitor(cfg, 0.01);
        const auto online = monitor.test_sequence(seq);
        unsigned online_failures = 0;
        for (const auto& v : online.software.verdicts) {
            online_failures += v.pass ? 0 : 1;
        }

        std::printf("%-14.3f %-16.3f %4u fail/%3zu     %4u fail/%zu\n",
                    jitter, source.effective_sigma(), offline.failed,
                    std::size_t{offline.passed + offline.failed},
                    online_failures,
                    online.software.verdicts.size());
    }

    std::printf("\ninterpretation: below ~0.008/period the accumulated "
                "jitter no longer\ndecorrelates successive samples and "
                "both flows reject; the shipping\nconfiguration (0.016) "
                "holds a 2x margin.  The on-the-fly verdicts track\nthe "
                "offline battery, so the deployed monitor guards the same "
                "boundary the\nlab characterization established.\n");
    return 0;
}
