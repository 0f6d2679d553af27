// Heap allocations of the window close: once the software pass is bound to
// the block's register layout (the first window), every later window of
// every paper design allocates nothing -- on the span and per-bit lanes,
// with and without the result latch, through test_packed and through
// feed_packed + finish_packed.  The paper's MCU returns a fixed set of
// numbers per window; so does the model.  Switching back and forth
// between two resident designs (an escalation and its return) allocates
// nothing either, and a reused channel runner refills a quiet device's
// evidence ring, tallies a failing device's windows and assembles an
// escalated device's offline evidence in place.
//
// This binary replaces the global operator new/delete with forwards to
// malloc/free that count the allocations of an armed thread, so it stays
// a binary of its own: the replacement reaches no other test.
#include "core/critical_values.hpp"
#include "core/design_config.hpp"
#include "core/fleet_monitor.hpp"
#include "core/monitor.hpp"
#include "trng/sources.hpp"

#include "support/fixed_seed.hpp"
#include "support/print_config.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>
#include <optional>
#include <string>
#include <vector>

namespace {

thread_local bool armed = false;
thread_local std::size_t allocations = 0;

void* counted_alloc(std::size_t size)
{
    if (armed) {
        ++allocations;
    }
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace otf;

/// Heap allocations `f` makes on this thread.
template <typename F>
std::size_t allocations_during(F&& f)
{
    allocations = 0;
    armed = true;
    f();
    armed = false;
    return allocations;
}

TEST(window_allocations, the_counter_sees_a_heap_allocation)
{
    EXPECT_EQ(allocations_during([] { std::vector<int> v(3); }), 1u);
    EXPECT_EQ(allocations_during([] {}), 0u);
}

class window_allocations
    : public ::testing::TestWithParam<hw::block_config> {};

TEST_P(window_allocations, windows_after_the_binding_one_allocate_nothing)
{
    constexpr std::size_t kWindows = 3; // the binding window, then two
    const hw::block_config design = GetParam();
    const core::critical_values cv =
        core::compute_critical_values(design, 0.01);
    const std::size_t nwords = design.n() / 64;
    trng::ideal_source src(test::fixture_seed(90));
    const std::vector<std::uint64_t> words =
        src.generate_words(kWindows * nwords);

    for (const bool double_buffered : {false, true}) {
        for (const core::ingest_lane lane :
             {core::ingest_lane::span, core::ingest_lane::per_bit}) {
            for (const bool incremental : {false, true}) {
                hw::block_config cfg = design;
                cfg.double_buffered = double_buffered;
                core::monitor mon(cfg, cv);
                // One window: whole through test_packed, or in two spans
                // through feed_packed and closed by finish_packed.
                const auto test_window = [&](std::size_t w) {
                    const std::uint64_t* window = words.data() + w * nwords;
                    if (!incremental) {
                        return mon.test_packed(window, nwords, lane);
                    }
                    const std::size_t half = nwords / 2;
                    mon.feed_packed(window, half, lane);
                    mon.feed_packed(window + half, nwords - half, lane);
                    return mon.finish_packed();
                };
                const std::string context = cfg.name
                    + (double_buffered ? " double-buffered" : "")
                    + (lane == core::ingest_lane::span ? " span" : " per-bit")
                    + (incremental ? " feed_packed+finish_packed"
                                   : " test_packed");

                test_window(0); // binds the pass to the register layout
                for (std::size_t w = 1; w < kWindows; ++w) {
                    std::size_t verdicts = 0;
                    const std::size_t allocated = allocations_during([&] {
                        verdicts = test_window(w).software.verdicts.size();
                    });
                    EXPECT_EQ(allocated, 0u)
                        << context << ", window " << w;
                    EXPECT_EQ(verdicts, cfg.tests.count()) << context;
                }
            }
        }
    }
}

TEST(window_allocations, a_resident_round_trip_allocates_nothing)
{
    // Escalation and its return switch between the block's resident
    // designs and the monitor's bound passes: once both designs are
    // built, a light -> medium -> light round trip, a window at each
    // design included, copies no bounds, builds no engine and rebinds
    // nothing.
    const hw::block_config light = core::paper_design(7, core::tier::light);
    const hw::block_config medium = core::paper_design(7, core::tier::medium);
    const core::critical_values light_cv =
        core::compute_critical_values(light, 0.01);
    const core::critical_values medium_cv =
        core::compute_critical_values(medium, 0.01);
    trng::ideal_source src(test::fixture_seed(91));
    const std::vector<std::uint64_t> words = src.generate_words(4);
    core::monitor mon(light, light_cv);
    mon.test_packed(words.data(), 2); // binds the light pass
    const auto round_trip = [&] {
        mon.reconfigure(medium, medium_cv);
        mon.test_packed(words.data(), 2);
        mon.reconfigure(light, light_cv);
        mon.test_packed(words.data() + 2, 2);
    };
    round_trip(); // builds and binds the medium design
    EXPECT_EQ(allocations_during(round_trip), 0u);
    EXPECT_EQ(allocations_during(round_trip), 0u);
    EXPECT_EQ(mon.config(), light);
    EXPECT_EQ(mon.block().reconfigurations(), 6u);
}

TEST(window_allocations, a_reused_runner_refills_the_evidence_ring_in_place)
{
    // A pool worker runs device after device on one channel_runner.  Once
    // it has run one device, a quiet device on the population design
    // (n = 128 light, escalating to medium) allocates nothing: the
    // supervisor's reset() keeps the evidence ring's storage -- the ring
    // vector and each window's word buffer -- the monitor keeps the word
    // buffer run_windows() frames windows in, and every hook closure of
    // the run fits std::function's inline buffer.
    core::fleet_config cfg;
    cfg.block = core::paper_design(7, core::tier::light);
    cfg.escalated_block = core::paper_design(7, core::tier::medium);
    cfg.validate();
    const core::critical_values cv =
        core::compute_critical_values(cfg.block, cfg.alpha);
    const std::optional<core::critical_values> cv_escalated =
        core::compute_critical_values(*cfg.escalated_block, cfg.alpha);
    core::channel_runner runner(cfg, cv, cv_escalated);
    constexpr std::uint64_t kWindows = 2 * 8; // two evidence-ring depths

    trng::ideal_source first(test::fixture_seed(92));
    const core::channel_report quiet = runner.run(first, 0, kWindows);
    ASSERT_EQ(quiet.windows, kWindows);
    ASSERT_EQ(quiet.failures, 0u) << "the device must be quiet";
    ASSERT_EQ(quiet.escalations, 0u);

    trng::ideal_source second(test::fixture_seed(92));
    core::channel_report again;
    const std::size_t allocated = allocations_during(
        [&] { again = runner.run(second, 0, kWindows); });
    EXPECT_EQ(again.failures, 0u);
    EXPECT_EQ(allocated, 0u);
}

TEST(window_allocations, a_reused_runner_tallies_failing_windows_in_place)
{
    // A device whose windows fail now and then, but never k of the last
    // w, raises no alarm and never escalates.  Its per-test failure tally
    // is one fixed counter per test, so on a reused runner the run
    // allocates nothing, plain and supervised.  The source's name fits
    // the small-string buffer, so the report's copy of it is free too.
    for (const bool supervised : {false, true}) {
        core::fleet_config cfg;
        cfg.block = core::paper_design(7, core::tier::light);
        if (supervised) {
            cfg.escalated_block = core::paper_design(7, core::tier::medium);
        }
        cfg.alpha = 0.05;
        cfg.fail_threshold = 8; // only 8 failures in a row raise the alarm
        cfg.policy_window = 8;
        cfg.validate();
        const core::critical_values cv =
            core::compute_critical_values(cfg.block, cfg.alpha);
        std::optional<core::critical_values> cv_escalated;
        if (supervised) {
            cv_escalated =
                core::compute_critical_values(*cfg.escalated_block, cfg.alpha);
        }
        core::channel_runner runner(cfg, cv, cv_escalated);
        constexpr std::uint64_t kWindows = 32;

        trng::ideal_source first(test::fixture_seed(93));
        const core::channel_report failing = runner.run(first, 0, kWindows);
        ASSERT_GT(failing.failures, 0u) << "the windows must fail";
        ASSERT_FALSE(failing.alarm);
        ASSERT_EQ(failing.escalations, 0u);

        trng::ideal_source second(test::fixture_seed(93));
        core::channel_report again;
        const std::size_t allocated = allocations_during(
            [&] { again = runner.run(second, 0, kWindows); });
        EXPECT_EQ(again, failing) << "supervised = " << supervised;
        EXPECT_EQ(allocated, 0u) << "supervised = " << supervised;
    }
}

TEST(window_allocations, a_reused_runner_confirms_an_escalation_in_place)
{
    // A device that escalates on its first windows and whose evidence the
    // offline battery confirms.  On a reused runner the confirmation
    // copies the evidence ring's words into the supervisor's bit
    // sequence, the battery works in the supervisor's workspace, and
    // reset() keeps the timeline's storage.  What the second run still
    // allocates is the battery report's entries, which move into the
    // confirmed event (1), and the report's copy of the source's name,
    // which outgrows the small-string buffer (1); the count is pinned so
    // that a new allocation on this path shows.
    core::fleet_config cfg;
    cfg.block = core::paper_design(7, core::tier::light);
    cfg.escalated_block = core::paper_design(7, core::tier::medium);
    cfg.alpha = 0.001;
    cfg.fail_threshold = 2;
    cfg.policy_window = 4;
    cfg.evidence_windows = 4;
    cfg.dwell_windows = 1000; // stay escalated once triggered
    cfg.validate();
    const core::critical_values cv =
        core::compute_critical_values(cfg.block, cfg.alpha);
    const std::optional<core::critical_values> cv_escalated =
        core::compute_critical_values(*cfg.escalated_block, cfg.alpha);
    core::channel_runner runner(cfg, cv, cv_escalated);
    constexpr std::uint64_t kWindows = 16;

    trng::biased_source first(test::fixture_seed(94), 0.95);
    const core::channel_report escalated = runner.run(first, 0, kWindows);
    ASSERT_EQ(escalated.escalations, 1u);
    ASSERT_EQ(escalated.confirmed_escalations, 1u);

    trng::biased_source second(test::fixture_seed(94), 0.95);
    core::channel_report again;
    const std::size_t allocated = allocations_during(
        [&] { again = runner.run(second, 0, kWindows); });
    EXPECT_EQ(again, escalated);
    EXPECT_EQ(allocated, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    all_paper_designs, window_allocations,
    ::testing::ValuesIn(core::all_paper_designs()),
    [](const ::testing::TestParamInfo<hw::block_config>& info) {
        std::string name = info.param.name;
        for (char& c : name) {
            if (c == '=' || c == ' ') {
                c = '_';
            }
        }
        return name;
    });

} // namespace
