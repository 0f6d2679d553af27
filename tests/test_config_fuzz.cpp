// Configuration-space fuzzing: the platform must behave across the whole
// parametric design space the paper's future work asks for (software-
// selectable lengths and parameters), not just the eight published
// points.  Random-but-valid configurations are generated from a seeded
// PRNG; every one must construct, expose a consistent register map, run a
// window end to end, and produce the same verdicts again after restart.
// Also checks the 32-bit-platform projection: identical verdicts with
// fewer native instructions.
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "trng/sources.hpp"
#include "trng/xoshiro.hpp"

#include <algorithm>
#include <cstdint>
#include <gtest/gtest.h>
#include <set>
#include <string>
#include <string_view>

namespace {

using namespace otf;

hw::block_config random_config(std::uint64_t seed)
{
    trng::xoshiro256ss rng(seed);
    const unsigned log2_n = 10 + static_cast<unsigned>(rng.next() % 9);

    // Random subset that always contains the base tests (the cusum walk
    // is structural) and respects the test-12-needs-test-11 rule.
    hw::test_set tests;
    tests.with(hw::test_id::frequency)
        .with(hw::test_id::runs)
        .with(hw::test_id::cumulative_sums)
        .with(hw::test_id::block_frequency)
        .with(hw::test_id::longest_run);
    if (rng.next_bit()) {
        tests.with(hw::test_id::non_overlapping_template);
    }
    if (rng.next_bit()) {
        tests.with(hw::test_id::non_overlapping_template)
            .with(hw::test_id::overlapping_template);
    }
    const bool serial = rng.next_bit();
    if (serial) {
        tests.with(hw::test_id::serial);
        if (rng.next_bit()) {
            tests.with(hw::test_id::approximate_entropy);
        }
    }

    hw::block_config cfg = core::custom_design(log2_n, tests);
    if (serial) {
        // Sweep the pattern length too (the paper fixes m = 4; the
        // engines support 3..8, below log2 n).
        const unsigned max_m = std::min(8u, log2_n - 1);
        cfg.serial_m = 3 + static_cast<unsigned>(rng.next() % (max_m - 2));
        if (rng.next_bit()) {
            cfg.serial_transfer_marginals = true;
        }
    }
    cfg.name = "fuzz seed " + std::to_string(seed);
    cfg.validate();
    return cfg;
}

class config_fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(config_fuzz, register_names_are_unique)
{
    const hw::testing_block block(random_config(GetParam()));
    const hw::register_map& map = block.registers();
    std::set<std::string> names;
    for (std::size_t i = 0; i < map.size(); ++i) {
        const hw::map_entry& e = map.entry(i);
        EXPECT_TRUE(names.insert(e.name).second)
            << "duplicate register: " << e.name;
        EXPECT_EQ(map.index_of(e.name), i)
            << "a name must resolve to its own entry: " << e.name;
        EXPECT_GE(e.width, 1u);
        EXPECT_LE(e.width, 64u);
    }
    std::set<std::string_view> controls;
    for (const hw::config_register& reg : hw::config_registers) {
        EXPECT_TRUE(controls.insert(reg.name).second)
            << "duplicate control register: " << reg.name;
    }
}

TEST_P(config_fuzz, map_fits_seven_bit_addressing)
{
    const hw::testing_block block(random_config(GetParam()));
    EXPECT_LE(block.registers().top_level_inputs(), 128u)
        << "the paper's interface uses a 7-bit address";
}

TEST_P(config_fuzz, window_runs_end_to_end_and_is_repeatable)
{
    const hw::block_config cfg = random_config(GetParam());
    core::monitor mon(cfg, 0.01);
    trng::ideal_source src(GetParam() * 7919 + 1);
    const bit_sequence window = src.generate(cfg.n());

    const auto first = mon.test_sequence(window);
    EXPECT_EQ(first.software.verdicts.size(), cfg.tests.count());
    const auto second = mon.test_sequence(window);
    ASSERT_EQ(first.software.verdicts.size(),
              second.software.verdicts.size());
    for (std::size_t i = 0; i < first.software.verdicts.size(); ++i) {
        EXPECT_EQ(first.software.verdicts[i].statistic,
                  second.software.verdicts[i].statistic)
            << hw::to_string(first.software.verdicts[i].id);
    }
}

TEST_P(config_fuzz, resource_model_is_sane)
{
    const hw::testing_block block(random_config(GetParam()));
    const auto r = block.cost();
    EXPECT_GT(r.ffs, 0u);
    EXPECT_GT(r.luts, 0u);
    const auto fpga = rtl::estimate_spartan6(r);
    EXPECT_GT(fpga.slices, 0u);
    EXPECT_GT(fpga.max_freq_mhz, 50.0);
    EXPECT_LT(fpga.max_freq_mhz, 400.0);
}

TEST_P(config_fuzz, thirty_two_bit_platform_same_verdicts_fewer_ops)
{
    const hw::block_config cfg = random_config(GetParam());
    trng::ideal_source src(GetParam() + 17);
    const bit_sequence window = src.generate(cfg.n());

    hw::testing_block block(cfg);
    block.run(window);
    const core::software_runner runner(
        cfg, core::compute_critical_values(cfg, 0.01));

    sw16::soft_cpu cpu16(16);
    sw16::soft_cpu cpu32(32);
    const auto r16 = runner.run(block.registers(), cpu16);
    const auto r32 = runner.run(block.registers(), cpu32);

    ASSERT_EQ(r16.verdicts.size(), r32.verdicts.size());
    for (std::size_t i = 0; i < r16.verdicts.size(); ++i) {
        EXPECT_EQ(r16.verdicts[i].pass, r32.verdicts[i].pass)
            << hw::to_string(r16.verdicts[i].id);
        EXPECT_EQ(r16.verdicts[i].statistic, r32.verdicts[i].statistic);
    }
    EXPECT_LT(r32.total_ops.total(), r16.total_ops.total())
        << "wider words mean fewer native instructions (the paper's "
           "32-bit projection)";
}

INSTANTIATE_TEST_SUITE_P(seeds, config_fuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

} // namespace
