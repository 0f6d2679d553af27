// Whole-platform integration tests: every paper design point runs end to
// end; the monitor loop behaves across restarts; the three sequence
// lengths and all tiers produce consistent verdicts on the same source
// family.
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "core/report.hpp"
#include "trng/sources.hpp"

#include "support/print_config.hpp"

#include <gtest/gtest.h>
#include <string>

namespace {

using namespace otf;

TEST(designs, all_eight_paper_variants_construct_and_validate)
{
    const auto designs = core::all_paper_designs();
    ASSERT_EQ(designs.size(), 8u);
    // Test counts per column reproduce Table III's dot matrix.
    EXPECT_EQ(designs[0].tests.count(), 5u); // 128 light
    EXPECT_EQ(designs[1].tests.count(), 7u); // 128 medium
    EXPECT_EQ(designs[2].tests.count(), 5u); // 64K light
    EXPECT_EQ(designs[3].tests.count(), 6u); // 64K medium
    EXPECT_EQ(designs[4].tests.count(), 9u); // 64K high
    EXPECT_EQ(designs[5].tests.count(), 5u); // 1M light
    EXPECT_EQ(designs[6].tests.count(), 6u); // 1M medium
    EXPECT_EQ(designs[7].tests.count(), 9u); // 1M high
}

TEST(designs, no_high_tier_at_128)
{
    EXPECT_THROW(core::paper_design(7, core::tier::high),
                 std::invalid_argument);
    EXPECT_THROW(core::paper_design(10, core::tier::light),
                 std::invalid_argument);
}

class every_design
    : public ::testing::TestWithParam<hw::block_config> {};

TEST_P(every_design, one_healthy_window_end_to_end)
{
    const hw::block_config cfg = GetParam();
    core::monitor mon(cfg, 0.01);
    trng::ideal_source src(0xD15EA5E + cfg.log2_n);
    const auto rep = mon.test_window(src);
    EXPECT_EQ(rep.software.verdicts.size(), cfg.tests.count());
    if (cfg.log2_n >= 16) {
        // The paper's latency claim targets the long designs; at n = 128
        // the software pass is longer than one 128-cycle window, so those
        // designs test windows at a duty cycle instead.
        EXPECT_LT(rep.sw_cycles, rep.generation_cycles) << cfg.name;
    }
    // A single window of an ideal source overwhelmingly passes; tolerate
    // at most one marginal single-test failure.
    unsigned failures = 0;
    for (const auto& v : rep.software.verdicts) {
        failures += v.pass ? 0 : 1;
    }
    EXPECT_LE(failures, 1u) << cfg.name << "\n"
                            << core::format_window(rep);
}

TEST_P(every_design, stuck_source_fails_everywhere)
{
    const hw::block_config cfg = GetParam();
    core::monitor mon(cfg, 0.01);
    trng::stuck_source src(true);
    const auto rep = mon.test_window(src);
    EXPECT_FALSE(rep.software.all_pass) << cfg.name;
}

INSTANTIATE_TEST_SUITE_P(
    paper_designs, every_design,
    ::testing::ValuesIn(core::all_paper_designs()),
    [](const ::testing::TestParamInfo<hw::block_config>& info) {
        std::string name = info.param.name;
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c))) {
                c = '_';
            }
        }
        return name;
    });

TEST(integration, monitor_restarts_are_independent)
{
    // The same bits through a restarted monitor give the same verdicts:
    // no state leaks across windows.
    const auto cfg = core::paper_design(7, core::tier::medium);
    core::monitor mon(cfg, 0.01);
    trng::ideal_source src(99);
    const bit_sequence window = src.generate(128);
    const auto first = mon.test_sequence(window);
    const auto second = mon.test_sequence(window);
    ASSERT_EQ(first.software.verdicts.size(),
              second.software.verdicts.size());
    for (std::size_t i = 0; i < first.software.verdicts.size(); ++i) {
        EXPECT_EQ(first.software.verdicts[i].statistic,
                  second.software.verdicts[i].statistic);
        EXPECT_EQ(first.software.verdicts[i].pass,
                  second.software.verdicts[i].pass);
    }
}

TEST(integration, aging_device_degrades_gracefully)
{
    // A slowly aging source passes early windows and fails late ones --
    // the "slow tests for long-term weaknesses" scenario.
    const auto cfg = core::custom_design(
        12, hw::test_set{}
                .with(hw::test_id::frequency)
                .with(hw::test_id::block_frequency)
                .with(hw::test_id::runs)
                .with(hw::test_id::longest_run)
                .with(hw::test_id::cumulative_sums));
    core::monitor mon(cfg, 0.01);
    trng::aging_source src(55, 0.56, 81920); // drifts over 20 windows
    unsigned early_failures = 0;
    unsigned late_failures = 0;
    for (unsigned w = 0; w < 20; ++w) {
        const bool fail = !mon.test_window(src).software.all_pass;
        if (w < 3) {
            early_failures += fail;
        }
        if (w >= 17) {
            late_failures += fail;
        }
    }
    EXPECT_LE(early_failures, 1u) << "a young device is near-healthy";
    EXPECT_EQ(late_failures, 3u) << "an aged device fails every window";
}

TEST(integration, report_formatting_mentions_all_tests)
{
    const auto cfg = core::paper_design(16, core::tier::high);
    core::monitor mon(cfg, 0.01);
    trng::ideal_source src(123);
    const auto rep = mon.test_window(src);
    const std::string text = core::format_window(rep);
    for (const char* name : {"frequency", "runs", "serial",
                             "cumulative_sums", "sw latency"}) {
        EXPECT_NE(text.find(name), std::string::npos) << name;
    }
    const hw::testing_block block(cfg);
    const std::string area = core::format_area(block);
    EXPECT_NE(area.find("slices"), std::string::npos);
    EXPECT_NE(area.find("GE"), std::string::npos);
}

} // namespace
