// The software pass (core::software_runner): its exact accounting on the
// Table III windows, and its register-map binding -- positions resolved
// by name once per map layout must read the same values a by-name lookup
// would, across reused runners, several blocks, control-plane
// reprogramming and monitor reconfiguration.
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "support/sw_golden.hpp"
#include "trng/sources.hpp"

#include <cstdint>
#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace {

using namespace otf;

constexpr double alpha = 0.01;

void expect_same(const core::software_result& got,
                 const core::software_result& want, const std::string& where)
{
    EXPECT_EQ(test::op_vector(got.total_ops), test::op_vector(want.total_ops))
        << where;
    EXPECT_EQ(got.all_pass, want.all_pass) << where;
    ASSERT_EQ(got.verdicts.size(), want.verdicts.size()) << where;
    for (std::size_t i = 0; i < got.verdicts.size(); ++i) {
        const core::test_verdict& a = got.verdicts[i];
        const core::test_verdict& b = want.verdicts[i];
        const std::string_view name = hw::to_string(a.id);
        EXPECT_EQ(a.id, b.id) << where;
        EXPECT_EQ(a.pass, b.pass) << where << " " << name;
        EXPECT_EQ(a.statistic, b.statistic) << where << " " << name;
        EXPECT_EQ(a.bound, b.bound) << where << " " << name;
    }
}

/// The pass a freshly constructed copy of `runner`'s design makes over
/// `map`.
core::software_result fresh_pass(const core::software_runner& runner,
                                 const hw::register_map& map)
{
    const core::software_runner fresh(runner.config(), runner.bounds());
    sw16::soft_cpu cpu(16);
    return fresh.run(map, cpu);
}

hw::block_config n128(core::tier t) { return core::paper_design(7, t); }

hw::block_config light_without_runs()
{
    hw::block_config cfg = n128(core::tier::light);
    cfg.tests = hw::test_set()
                    .with(hw::test_id::frequency)
                    .with(hw::test_id::block_frequency)
                    .with(hw::test_id::longest_run)
                    .with(hw::test_id::cumulative_sums);
    cfg.name += " without runs";
    return cfg;
}

TEST(sw_golden, table3_windows_pin_ops_cycles_and_verdicts)
{
    const std::vector<test::golden_window> golden = test::golden_windows();
    ASSERT_EQ(golden.size(), 10u);
    for (std::size_t i = 0; i < golden.size(); ++i) {
        const test::golden_window& g = golden[i];
        core::monitor mon(g.design, alpha);
        trng::ideal_source src(test::kGoldenSeedBase + i);
        const core::window_report rep = mon.test_window(src);
        const std::string where = g.design.name;

        EXPECT_EQ(test::op_vector(rep.software.total_ops), g.ops) << where;
        EXPECT_EQ(rep.sw_cycles, g.sw_cycles) << where;
        ASSERT_EQ(rep.software.verdicts.size(), g.verdicts.size()) << where;
        for (std::size_t v = 0; v < g.verdicts.size(); ++v) {
            const core::test_verdict& got = rep.software.verdicts[v];
            const test::golden_verdict& want = g.verdicts[v];
            EXPECT_EQ(hw::to_string(got.id), want.name) << where;
            EXPECT_EQ(got.pass, want.pass) << where << " " << want.name;
            EXPECT_EQ(got.statistic, want.statistic)
                << where << " " << want.name;
            EXPECT_EQ(got.bound, want.bound) << where << " " << want.name;
        }
    }
}

TEST(sw_binding, another_designs_map_throws_naming_the_missing_value)
{
    const hw::testing_block light(n128(core::tier::light));
    const core::software_runner medium(
        n128(core::tier::medium),
        core::compute_critical_values(n128(core::tier::medium), alpha));
    sw16::soft_cpu cpu(16);
    try {
        medium.run(light.registers(), cpu);
        FAIL() << "a light map lacks the serial counters";
    } catch (const std::out_of_range& e) {
        EXPECT_NE(std::string(e.what()).find("serial.nu_m[0]"),
                  std::string::npos)
            << e.what();
    }

    // A scalar the design needs: runs.n_runs, on the map of the light
    // design without its runs engine.
    const hw::testing_block bare(light_without_runs());
    const core::software_runner light_runner(
        n128(core::tier::light),
        core::compute_critical_values(n128(core::tier::light), alpha));
    try {
        light_runner.run(bare.registers(), cpu);
        FAIL() << "the map has no runs counter";
    } catch (const std::out_of_range& e) {
        EXPECT_NE(std::string(e.what()).find("runs.n_runs"),
                  std::string::npos)
            << e.what();
    }

    // The failed binding leaves the runner usable on a matching map.
    hw::testing_block ok(n128(core::tier::light));
    trng::ideal_source src(3);
    ok.run(src.generate(ok.config().n()));
    expect_same(light_runner.run(ok.registers(), cpu),
                fresh_pass(light_runner, ok.registers()), "after throw");
}

TEST(sw_binding, reused_runner_matches_a_fresh_runner_every_window)
{
    hw::block_config marginal = n128(core::tier::medium);
    marginal.serial_transfer_marginals = true;
    hw::block_config buffered = n128(core::tier::medium);
    buffered.double_buffered = true;
    for (const hw::block_config& cfg :
         {n128(core::tier::light), n128(core::tier::medium), marginal,
          buffered}) {
        const core::software_runner runner(
            cfg, core::compute_critical_values(cfg, alpha));
        sw16::soft_cpu cpu(16);
        // Two blocks of one design, alternating under the one runner.
        hw::testing_block a(cfg);
        hw::testing_block b(cfg);
        trng::ideal_source src(77);
        for (unsigned w = 0; w < 40; ++w) {
            hw::testing_block& block = (w % 4 < 2) ? a : b;
            block.run(src.generate(cfg.n()));
            expect_same(runner.run(block.registers(), cpu),
                        fresh_pass(runner, block.registers()),
                        cfg.name + " window " + std::to_string(w));
            block.restart();
        }
    }
}

TEST(sw_binding, control_plane_reprogramming_rebinds_a_live_runner)
{
    // A design without the runs engine: reprogramming the block to the
    // light design inserts runs.n_runs ahead of the block-frequency bank,
    // so every later value moves.
    const hw::block_config cfg = light_without_runs();
    const core::software_runner runner(
        cfg, core::compute_critical_values(cfg, alpha));
    sw16::soft_cpu cpu(16);

    hw::testing_block block(cfg);
    trng::ideal_source src(91);
    block.run(src.generate(cfg.n()));
    expect_same(runner.run(block.registers(), cpu),
                fresh_pass(runner, block.registers()), "before");
    const std::size_t eps0 = block.registers().index_of(
        "block_frequency.eps[0]");
    block.restart();

    hw::register_map& map = block.registers();
    map.write_control("cfg.tests", n128(core::tier::light).tests.to_raw());
    map.write_control("ctrl.reconfigure", 1);
    ASSERT_EQ(block.reconfigurations(), 1u);
    ASSERT_NE(map.index_of("block_frequency.eps[0]"), eps0);

    for (unsigned w = 0; w < 4; ++w) {
        block.run(src.generate(cfg.n()));
        expect_same(runner.run(block.registers(), cpu),
                    fresh_pass(runner, block.registers()),
                    "after window " + std::to_string(w));
        block.restart();
    }
}

TEST(sw_binding, monitor_reconfigure_round_trip_matches_fresh_monitors)
{
    const hw::block_config light = n128(core::tier::light);
    const hw::block_config medium = n128(core::tier::medium);
    core::monitor live(light, alpha);
    trng::ideal_source src(123);
    std::vector<std::uint64_t> words(light.n() / 64);
    unsigned window = 0;
    for (const hw::block_config* cfg : {&light, &medium, &light}) {
        if (live.config().name != cfg->name) {
            live.reconfigure(*cfg, alpha);
        }
        core::monitor fresh(*cfg, alpha);
        for (unsigned w = 0; w < 5; ++w, ++window) {
            src.fill_words(words.data(), words.size());
            const core::window_report got =
                live.test_packed(words.data(), words.size());
            const core::window_report want =
                fresh.test_packed(words.data(), words.size());
            const std::string where =
                cfg->name + " window " + std::to_string(window);
            expect_same(got.software, want.software, where);
            EXPECT_EQ(got.sw_cycles, want.sw_cycles) << where;
        }
    }
    EXPECT_EQ(live.block().reconfigurations(), 2u);
}

} // namespace
