// Adaptive monitoring: a full escalate -> confirm -> de-escalate
// timeline.
//
//   $ ./adaptive_monitoring
//
// The closed loop the paper's platform enables: a TRNG channel runs
// under a cheap always-on design; an SRAM-style entropy collapse hits
// mid-run (a supply-voltage dip); the k-of-w alarm trips and the
// supervisor reprograms the live testing block to the full nine-test
// design *through its control registers*, replays the captured evidence
// through the offline SP 800-22 battery for confirmation, and -- once
// the supply recovers and the heavy design has seen a clean dwell --
// reprograms the block back to the baseline and re-arms the alarm.
// Every transition is printed from the structured event log.
#include "base/env.hpp"
#include "core/design_config.hpp"
#include "core/scenario.hpp"
#include "core/supervisor.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"

#include <cstdio>
#include <memory>

using namespace otf;

int main()
{
    // Baseline: a 4096-bit frequency/runs/cusum watchdog (the cheap
    // always-on tier).  Escalated: all nine tests on the same window
    // length -- the heavy design suspicion buys.
    core::supervisor_config cfg;
    cfg.baseline = core::custom_design(
        12, hw::test_set{}
                .with(hw::test_id::frequency)
                .with(hw::test_id::runs)
                .with(hw::test_id::cumulative_sums));
    cfg.baseline.name = "n=4096 watchdog";
    cfg.escalated = core::custom_design(
        12, hw::test_set{}
                .with(hw::test_id::frequency)
                .with(hw::test_id::block_frequency)
                .with(hw::test_id::runs)
                .with(hw::test_id::longest_run)
                .with(hw::test_id::non_overlapping_template)
                .with(hw::test_id::overlapping_template)
                .with(hw::test_id::serial)
                .with(hw::test_id::approximate_entropy)
                .with(hw::test_id::cumulative_sums));
    cfg.escalated.name = "n=4096 full battery";
    cfg.alpha = 0.001;
    cfg.fail_threshold = 2;
    cfg.policy_window = 4;
    cfg.evidence_windows = 6;
    cfg.dwell_windows = smoke_scaled<std::uint64_t>(8, 4);

    const std::uint64_t windows = smoke_scaled<std::uint64_t>(64, 40);
    const std::uint64_t attack_on = 10;
    const std::uint64_t attack_off = 22;
    std::printf("adaptive monitoring: %s -> %s on suspicion\n",
                cfg.baseline.name.c_str(), cfg.escalated.name.c_str());
    std::printf("alarm %u-of-%u at alpha %.4g, evidence %zu windows, "
                "de-escalation dwell %llu clean windows\n",
                cfg.fail_threshold, cfg.policy_window, cfg.alpha,
                cfg.evidence_windows,
                static_cast<unsigned long long>(cfg.dwell_windows));
    std::printf("attack: SRAM entropy collapse (supply dip), windows "
                "%llu..%llu of %llu\n\n",
                static_cast<unsigned long long>(attack_on),
                static_cast<unsigned long long>(attack_off),
                static_cast<unsigned long long>(windows));

    // The attacked channel: an SRAM collapse pulse riding the severity
    // schedule, stepped at every window boundary (the supply dips and
    // recovers).
    trng::entropy_collapse_source::parameters params;
    params.cell_one_prob = 0.6;
    auto source = std::make_unique<trng::entropy_collapse_source>(
        std::make_unique<trng::ideal_source>(2027), 2028, params);
    trng::source_model* model = source.get();
    core::severity_schedule schedule{
        core::severity_schedule::shape::pulse, 1.0, attack_on,
        0, attack_off - attack_on};

    core::supervisor sup(cfg);
    const core::supervision_report rep =
        sup.run(*source, windows, [model, schedule](std::uint64_t w) {
            model->set_severity(schedule.severity_at(w));
        });

    std::printf("timeline (%zu events over %llu windows):\n",
                rep.events.size(),
                static_cast<unsigned long long>(rep.windows));
    for (const core::supervision_event& ev : rep.events) {
        std::printf("  window %3llu  %-13s",
                    static_cast<unsigned long long>(ev.window_index),
                    core::to_string(ev.kind).c_str());
        if (!ev.from_design.empty()) {
            std::printf("  %s -> %s", ev.from_design.c_str(),
                        ev.to_design.c_str());
        }
        if (ev.confirmation) {
            const core::confirmation_result& conf = *ev.confirmation;
            std::printf("  offline battery on %llu evidence windows "
                        "(%llu bits): %u failed / %u passed -> %s",
                        static_cast<unsigned long long>(
                            conf.evidence_windows),
                        static_cast<unsigned long long>(
                            conf.evidence_bits),
                        conf.battery.failed, conf.battery.passed,
                        conf.confirmed ? "CONFIRMED" : "not confirmed");
        }
        std::printf("\n");
    }

    std::printf("\nrun summary: %llu windows (%llu escalated), %llu "
                "failures, %u escalation(s), %u confirmed, %u "
                "de-escalation(s)\n",
                static_cast<unsigned long long>(rep.windows),
                static_cast<unsigned long long>(rep.windows_escalated),
                static_cast<unsigned long long>(rep.failures),
                rep.escalations, rep.confirmed_escalations,
                rep.de_escalations);
    std::printf("final state: %s (%s)\n",
                rep.final_state == core::supervision_state::baseline
                    ? "baseline"
                    : "escalated",
                sup.inner().config().name.c_str());

    const bool ok = rep.escalations >= 1
        && rep.confirmed_escalations == rep.escalations
        && rep.de_escalations >= 1
        && rep.final_state == core::supervision_state::baseline;
    std::printf("\n%s\n",
                ok ? "closed loop: escalated on the dip, confirmed "
                     "offline, de-escalated after recovery"
                   : "TIMELINE FAILED: expected escalate -> confirm -> "
                     "de-escalate back to baseline");
    return ok ? 0 : 1;
}
