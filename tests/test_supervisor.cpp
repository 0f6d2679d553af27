// Tests of the adaptive escalation supervisor: configuration validation,
// the escalate -> confirm -> de-escalate timeline, evidence-ring
// bounding, mixed-length window accounting, determinism and the JSON
// event log.
#include "base/json.hpp"
#include "core/design_config.hpp"
#include "core/supervisor.hpp"
#include "trng/entropy_source.hpp"
#include "trng/sources.hpp"

#include <chrono>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace otf;
using core::paper_design;
using core::supervision_event_kind;
using core::supervision_state;
using core::tier;

core::supervisor_config small_config()
{
    core::supervisor_config cfg;
    cfg.baseline = paper_design(7, tier::light);
    cfg.escalated = paper_design(7, tier::medium);
    cfg.alpha = 0.001;
    cfg.fail_threshold = 2;
    cfg.policy_window = 4;
    cfg.evidence_windows = 4;
    cfg.dwell_windows = 4;
    return cfg;
}

/// Ideal stream except a stuck-at-one burst between two absolute bit
/// indexes -- a deterministic fault pulse for timeline tests.  The inner
/// generator always advances, so the post-burst stream is the healthy
/// stream shifted by nothing (same draws, some overridden).
class burst_source final : public trng::entropy_source {
public:
    burst_source(std::uint64_t seed, std::uint64_t from_bit,
                 std::uint64_t to_bit)
        : inner_(seed), from_(from_bit), to_(to_bit)
    {
    }

    bool next_bit() override
    {
        const std::uint64_t i = index_++;
        const bool healthy = inner_.next_bit();
        return (i >= from_ && i < to_) ? true : healthy;
    }

    std::string name() const override { return "burst"; }

private:
    trng::ideal_source inner_;
    std::uint64_t from_;
    std::uint64_t to_;
    std::uint64_t index_ = 0;
};

TEST(supervisor_config, validation)
{
    {
        core::supervisor_config cfg = small_config();
        cfg.baseline.log2_n = 5; // n = 32 < one word
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    }
    {
        core::supervisor_config cfg = small_config();
        cfg.evidence_windows = 0;
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    }
    {
        core::supervisor_config cfg = small_config();
        cfg.dwell_windows = 0;
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    }
    {
        core::supervisor_config cfg = small_config();
        cfg.fail_threshold = 9;
        cfg.policy_window = 8;
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    }
    {
        core::supervisor_config cfg = small_config();
        cfg.offline_min_failures = 0;
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    }
    EXPECT_NO_THROW(small_config().validate());
}

TEST(supervisor, escalates_and_confirms_on_a_bad_source)
{
    core::supervisor_config cfg = small_config();
    cfg.dwell_windows = 1000; // never de-escalate in this run
    core::supervisor sup(cfg);

    trng::biased_source bad(42, 0.95);
    const auto rep = sup.run(bad, 24);

    EXPECT_EQ(rep.windows, 24u);
    EXPECT_EQ(rep.escalations, 1u);
    EXPECT_EQ(rep.confirmed_escalations, 1u)
        << "a 95%-ones stream must fail the offline battery";
    EXPECT_EQ(rep.de_escalations, 0u);
    EXPECT_EQ(rep.final_state, supervision_state::escalated);
    EXPECT_TRUE(rep.alarm);
    EXPECT_LT(rep.first_escalation_window, 4u)
        << "2-of-4 on an always-failing stream escalates immediately";
    EXPECT_GT(rep.windows_escalated, 16u);

    // Timeline order: the alarm rises, then the block escalates, then
    // the offline confirmation lands -- all as structured events.
    ASSERT_GE(rep.events.size(), 3u);
    EXPECT_EQ(rep.events[0].kind, supervision_event_kind::alarm_raised);
    EXPECT_EQ(rep.events[1].kind, supervision_event_kind::escalated);
    EXPECT_EQ(rep.events[1].from_design, cfg.baseline.name);
    EXPECT_EQ(rep.events[1].to_design, cfg.escalated.name);
    EXPECT_EQ(rep.events[2].kind, supervision_event_kind::confirmed);
    ASSERT_TRUE(rep.events[2].confirmation.has_value());
    EXPECT_TRUE(rep.events[2].confirmation->confirmed);
    EXPECT_GT(rep.events[2].confirmation->battery.failed, 1u);

    // The supervisor's monitor now runs the escalated design.
    EXPECT_EQ(sup.inner().config().name, cfg.escalated.name);
}

TEST(supervisor, null_source_stays_at_baseline)
{
    core::supervisor_config cfg = small_config();
    core::supervisor sup(cfg);
    trng::ideal_source healthy(7);
    const auto rep = sup.run(healthy, 32);

    EXPECT_EQ(rep.windows, 32u);
    EXPECT_EQ(rep.escalations, 0u);
    EXPECT_EQ(rep.final_state, supervision_state::baseline);
    EXPECT_EQ(rep.first_escalation_window, rep.windows)
        << "the sentinel for 'never escalated'";
    EXPECT_EQ(rep.bits, 32u * cfg.baseline.n());
}

TEST(supervisor, pulse_attack_escalates_confirms_and_de_escalates)
{
    core::supervisor_config cfg = small_config();
    cfg.dwell_windows = 4;
    core::supervisor sup(cfg);

    // Stuck-at-one from window 4 to window 10 (bits 512..1280), healthy
    // before and after.
    burst_source source(99, 4 * 128, 10 * 128);
    const auto rep = sup.run(source, 40);

    EXPECT_EQ(rep.escalations, 1u);
    EXPECT_EQ(rep.confirmed_escalations, 1u);
    EXPECT_EQ(rep.de_escalations, 1u);
    EXPECT_EQ(rep.final_state, supervision_state::baseline);
    EXPECT_FALSE(rep.alarm) << "de-escalation re-arms the policy";
    EXPECT_GE(rep.first_escalation_window, 4u);

    // The timeline must read: alarm -> escalated -> confirmed ->
    // alarm_cleared -> de_escalated.
    std::vector<supervision_event_kind> kinds;
    kinds.reserve(rep.events.size());
    for (const auto& ev : rep.events) {
        kinds.push_back(ev.kind);
    }
    const std::vector<supervision_event_kind> expected{
        supervision_event_kind::alarm_raised,
        supervision_event_kind::escalated,
        supervision_event_kind::confirmed,
        supervision_event_kind::alarm_cleared,
        supervision_event_kind::de_escalated};
    EXPECT_EQ(kinds, expected);
    EXPECT_EQ(rep.events.back().to_design, cfg.baseline.name);
    EXPECT_GT(rep.events.back().window_index,
              rep.events[1].window_index);
}

TEST(supervisor, evidence_ring_is_bounded)
{
    core::supervisor_config cfg = small_config();
    cfg.evidence_windows = 3;
    cfg.fail_threshold = 3;
    cfg.policy_window = 4;
    core::supervisor sup(cfg);
    trng::biased_source bad(5, 0.95);
    const auto rep = sup.run(bad, 16);

    ASSERT_EQ(rep.escalations, 1u);
    const auto* confirmed = [&]() -> const core::supervision_event* {
        for (const auto& ev : rep.events) {
            if (ev.kind == supervision_event_kind::confirmed) {
                return &ev;
            }
        }
        return nullptr;
    }();
    ASSERT_NE(confirmed, nullptr);
    EXPECT_EQ(confirmed->confirmation->evidence_windows, 3u)
        << "the ring must cap at evidence_windows";
    EXPECT_EQ(confirmed->confirmation->evidence_bits, 3u * 128u);
}

TEST(supervisor, escalation_to_longer_windows_reframes_the_stream)
{
    // The heavy design has 4x the baseline window: after escalation the
    // window loop must frame 512-bit windows from the same word stream
    // without losing a word.
    core::supervisor_config cfg = small_config();
    cfg.escalated = core::custom_design(
        9, hw::test_set{}
               .with(hw::test_id::frequency)
               .with(hw::test_id::runs)
               .with(hw::test_id::cumulative_sums));
    cfg.dwell_windows = 1000;
    core::supervisor sup(cfg);

    trng::biased_source bad(11, 0.9);
    const auto rep = sup.run(bad, 20);

    ASSERT_EQ(rep.escalations, 1u);
    EXPECT_EQ(rep.final_state, supervision_state::escalated);
    const std::uint64_t baseline_windows =
        rep.windows - rep.windows_escalated;
    EXPECT_EQ(rep.bits,
              baseline_windows * 128u + rep.windows_escalated * 512u)
        << "mixed-length windows must account bit-exactly";
    EXPECT_EQ(sup.inner().config().n(), 512u);
}

TEST(supervisor, deterministic_for_a_fixed_seed)
{
    const auto once = [] {
        core::supervisor_config cfg = small_config();
        core::supervisor sup(cfg);
        burst_source source(1234, 3 * 128, 9 * 128);
        return sup.run(source, 32);
    };
    const auto a = once();
    const auto b = once();
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.bits, b.bits);
    EXPECT_EQ(a.escalations, b.escalations);
    EXPECT_EQ(a.de_escalations, b.de_escalations);
    EXPECT_EQ(a.failures_by_test, b.failures_by_test);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
        EXPECT_EQ(a.events[i].window_index, b.events[i].window_index)
            << i;
    }
}

TEST(supervisor, every_ingest_lane_agrees_with_the_per_bit_oracle)
{
    const auto run_lane = [](core::ingest_lane lane) {
        core::supervisor_config cfg = small_config();
        cfg.lane = lane;
        core::supervisor sup(cfg);
        burst_source source(77, 2 * 128, 8 * 128);
        return sup.run(source, 24);
    };
    const auto bit = run_lane(core::ingest_lane::per_bit);
    const auto fast = run_lane(core::ingest_lane::span);
    EXPECT_EQ(fast.failures, bit.failures);
    EXPECT_EQ(fast.escalations, bit.escalations);
    EXPECT_EQ(fast.de_escalations, bit.de_escalations);
    EXPECT_EQ(fast.failures_by_test, bit.failures_by_test);
    EXPECT_EQ(fast.events.size(), bit.events.size());
}

TEST(supervisor, event_log_serializes_as_json)
{
    core::supervisor_config cfg = small_config();
    core::supervisor sup(cfg);
    trng::biased_source bad(21, 0.95);
    sup.run(bad, 12);

    json_writer json;
    json.begin_object();
    sup.write_events(json, "events");
    json.end_object();
    const std::string text = json.str();
    EXPECT_NE(text.find("\"escalated\""), std::string::npos);
    EXPECT_NE(text.find("\"confirmation\""), std::string::npos);
    EXPECT_NE(text.find("\"battery\""), std::string::npos);
    EXPECT_NE(text.find(cfg.escalated.name), std::string::npos);
}

// ---------------------------------------------------------------------
// Checkpoint / restore: register-exact continuation.
// ---------------------------------------------------------------------

/// Drive `sup` for exactly `windows` windows from `source` through an
/// external window loop wired to its hooks.  The loop draws exactly the
/// words those windows need, so the source's position afterwards is the
/// precise window boundary and a later segment continues the very same
/// stream.
void drive(core::supervisor& sup, trng::entropy_source& source,
           std::uint64_t windows)
{
    core::run_windows(sup.inner(), source, windows, sup.config().lane,
                      {sup.barrier(), sup.tap(), sup.sink()});
}

/// Everything a continuation must reproduce -- counters, verdict state
/// and the full event timeline with bitwise P-values (stream/timing
/// telemetry excluded: wall clock is not state).
void expect_report_eq(const core::supervision_report& a,
                      const core::supervision_report& b)
{
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.bits, b.bits);
    EXPECT_EQ(a.escalations, b.escalations);
    EXPECT_EQ(a.confirmed_escalations, b.confirmed_escalations);
    EXPECT_EQ(a.de_escalations, b.de_escalations);
    EXPECT_EQ(a.windows_escalated, b.windows_escalated);
    EXPECT_EQ(a.first_escalation_window, b.first_escalation_window);
    EXPECT_EQ(a.alarm, b.alarm);
    EXPECT_EQ(a.final_state, b.final_state);
    EXPECT_EQ(a.failures_by_test, b.failures_by_test);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i], b.events[i]) << "event " << i;
    }
}

/// Run `total` windows in one piece, then again split at window `k`
/// with a serialize/parse/restore handover, and demand identity.
void check_split(const core::supervisor_config& cfg, std::uint64_t seed,
                 std::uint64_t burst_from_window,
                 std::uint64_t burst_to_window, std::uint64_t total,
                 std::uint64_t k)
{
    const std::uint64_t n = cfg.baseline.n();

    core::supervisor whole(cfg);
    burst_source a(seed, burst_from_window * n, burst_to_window * n);
    drive(whole, a, total);

    core::supervisor first(cfg);
    burst_source b(seed, burst_from_window * n, burst_to_window * n);
    drive(first, b, k);
    const std::vector<std::uint8_t> bytes =
        core::serialize(first.checkpoint());

    core::supervisor second(cfg);
    second.restore(core::parse_checkpoint(bytes));
    drive(second, b, total - k);

    expect_report_eq(second.report(), whole.report());
    // The continuation's own next checkpoint equals the uninterrupted
    // run's -- the handover is invisible downstream too.
    EXPECT_EQ(second.checkpoint(), whole.checkpoint()) << "split at " << k;
}

TEST(supervisor_checkpoint, restore_continues_at_every_boundary)
{
    // A pulse attack whose timeline (alarm -> escalate -> confirm ->
    // dwell -> de-escalate) spans the run, split at EVERY window
    // boundary: mid-baseline, mid-escalation and mid-dwell handovers
    // all continue register-exact.
    const core::supervisor_config cfg = small_config();
    const std::uint64_t total = 16;
    for (std::uint64_t k = 1; k < total; ++k) {
        check_split(cfg, 4242, 3, 9, total, k);
    }
}

TEST(supervisor_checkpoint, round_trips_across_paper_designs_and_lanes)
{
    // Register-exact continuation for every paper design x ingest lane,
    // with the split landing mid-escalation.  A cheap offline subset
    // keeps the confirmation battery affordable at n = 2^20.
    for (const unsigned log2_n : {7u, 16u, 20u}) {
        for (const tier t : {tier::light, tier::medium, tier::high}) {
            if (log2_n == 7 && t == tier::high) {
                continue; // the paper has no high tier at n = 128
            }
            core::supervisor_config cfg;
            cfg.baseline = paper_design(log2_n, t);
            cfg.escalated = paper_design(
                log2_n, log2_n == 7 ? tier::medium : tier::high);
            cfg.alpha = 0.001;
            cfg.fail_threshold = 2;
            cfg.policy_window = 4;
            cfg.evidence_windows = 2;
            cfg.dwell_windows = 3;
            cfg.offline_tests = nist::battery_selection()
                                    .with(1)
                                    .with(3)
                                    .with(13);
            for (const core::ingest_lane lane :
                 {core::ingest_lane::per_bit, core::ingest_lane::span}) {
                cfg.lane = lane;
                // Stuck-at-one from window 1 onward: escalated (and
                // confirmed) well before the split at window 4.
                check_split(cfg, 7000 + log2_n, 1, 8, 8, 4);
            }
        }
    }
}

TEST(supervisor_checkpoint, restore_rejects_bad_targets)
{
    const core::supervisor_config cfg = small_config();
    core::supervisor sup(cfg);
    burst_source source(55, 2 * 128, 8 * 128);
    drive(sup, source, 10);
    const core::supervisor_checkpoint cp = sup.checkpoint();

    // Restoring over a supervisor that has already observed windows
    // would silently discard its history.
    core::supervisor busy(cfg);
    trng::ideal_source healthy(3);
    drive(busy, healthy, 2);
    EXPECT_THROW(busy.restore(cp), std::logic_error);

    // A checkpoint whose evidence ring exceeds the target's policy
    // cannot have come from this configuration.
    core::supervisor_config narrow = cfg;
    narrow.evidence_windows = 2;
    core::supervisor mismatched(narrow);
    core::supervisor_checkpoint deep = cp;
    deep.evidence_ring.resize(4);
    EXPECT_THROW(mismatched.restore(deep), std::invalid_argument);
}

TEST(supervisor, dwell_counter_rides_every_event)
{
    // Regression: de-escalation dwell progress must be visible in the
    // event payloads (and their JSON), not just implied by the window
    // spacing.
    core::supervisor_config cfg = small_config();
    cfg.dwell_windows = 4;
    core::supervisor sup(cfg);
    burst_source source(99, 4 * 128, 10 * 128);
    const auto rep = sup.run(source, 40);

    ASSERT_EQ(rep.de_escalations, 1u);
    for (const auto& ev : rep.events) {
        switch (ev.kind) {
        case supervision_event_kind::alarm_raised:
        case supervision_event_kind::escalated:
            EXPECT_EQ(ev.dwell, 0u) << "no clean windows before escalation";
            break;
        case supervision_event_kind::alarm_cleared:
        case supervision_event_kind::de_escalated:
            EXPECT_EQ(ev.dwell, cfg.dwell_windows)
                << "de-escalation fires exactly at the dwell target";
            break;
        case supervision_event_kind::confirmed:
            EXPECT_LE(ev.dwell, cfg.dwell_windows);
            break;
        }
    }

    json_writer json;
    json.begin_object();
    sup.write_events(json, "events");
    json.end_object();
    EXPECT_NE(json.str().find("\"dwell\""), std::string::npos);
}

TEST(supervisor, external_pipeline_adapters_match_run)
{
    // Driving the hooks from an external window loop (the fleet's
    // channel loop shape) must produce the same verdict/event stream as
    // run().
    core::supervisor_config cfg = small_config();
    core::supervisor inline_sup(cfg);
    burst_source a(31, 2 * 128, 8 * 128);
    const auto via_run = inline_sup.run(a, 20);

    core::supervisor external(cfg);
    burst_source b(31, 2 * 128, 8 * 128);
    core::run_windows(external.inner(), b, 20, cfg.lane,
                      {external.barrier(), external.tap(), external.sink()});
    const auto via_hooks = external.report();

    EXPECT_EQ(via_hooks.windows, via_run.windows);
    EXPECT_EQ(via_hooks.failures, via_run.failures);
    EXPECT_EQ(via_hooks.escalations, via_run.escalations);
    EXPECT_EQ(via_hooks.events.size(), via_run.events.size());
}

TEST(supervisor, run_of_zero_windows_returns_at_once)
{
    // Regression: a zero window count used to mean "until the stream
    // ends", so an endless source never returned.  It now tests nothing.
    // small_config steps from the n = 128 light design up to medium.
    core::supervisor sup(small_config());
    trng::ideal_source endless(3);
    const auto start = std::chrono::steady_clock::now();
    const auto rep = sup.run(endless, 0);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
    EXPECT_EQ(rep.windows, 0u);
    EXPECT_EQ(rep.bits, 0u);
    EXPECT_TRUE(rep.events.empty());
    EXPECT_EQ(sup.inner().windows_tested(), 0u);
}

} // namespace
