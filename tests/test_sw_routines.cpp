// The software pass (core::software_runner): its exact accounting on the
// Table III windows, its charges replayed per decision path against the
// fully accounted pass, and its register-map binding -- positions resolved
// by name once per map layout must read the same values a by-name lookup
// would, across reused runners, several blocks, control-plane
// reprogramming and monitor reconfiguration.
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "support/fixed_seed.hpp"
#include "support/sw_golden.hpp"
#include "sw16/cycle_model.hpp"
#include "trng/sources.hpp"

#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
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

/// The largest unsigned value of `bits` bits.
std::uint64_t all_ones(unsigned bits)
{
    return bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// Register files for the replay oracle: windows of an ideal and two
/// biased sources, then files written into the map -- all zero,
/// saturated at width (all ones, and the largest positive value of a
/// signed entry), extreme walk values, and N_ones on both sides of every
/// runs-interval edge with the run count on its acceptance edges.
std::vector<hw::register_map> register_files(const hw::block_config& cfg,
                                             const core::critical_values& cv)
{
    hw::testing_block block(cfg);
    const std::size_t windows = cfg.log2_n >= 16 ? 4 : 24;
    std::vector<hw::register_map> files;
    std::vector<std::unique_ptr<trng::entropy_source>> sources;
    sources.push_back(std::make_unique<trng::ideal_source>(
        test::fixture_seed(cfg.log2_n)));
    sources.push_back(std::make_unique<trng::biased_source>(
        test::fixture_seed(cfg.log2_n + 100), 0.55));
    sources.push_back(std::make_unique<trng::biased_source>(
        test::fixture_seed(cfg.log2_n + 200), 0.9));
    for (const auto& src : sources) {
        for (std::size_t w = 0; w < windows; ++w) {
            const std::vector<std::uint64_t> words =
                src->generate_words(cfg.n() / 64);
            block.feed_span(words.data(), cfg.n());
            block.finish();
            files.push_back(block.registers());
            block.restart();
        }
    }

    const hw::register_map base = files.front();
    const auto write = [](hw::register_map& map, const std::string& name,
                          std::int64_t v) {
        const std::size_t i = map.index_of(name);
        map.values()[i] =
            static_cast<std::uint64_t>(v) & all_ones(map.entry(i).width);
    };
    const auto filled = [&](auto&& value_of_entry) {
        hw::register_map map = base;
        for (std::size_t i = 0; i < map.size(); ++i) {
            map.values()[i] = value_of_entry(map.entry(i));
        }
        return map;
    };
    files.push_back(filled([](const hw::map_entry&) { return 0u; }));
    files.push_back(
        filled([](const hw::map_entry& e) { return all_ones(e.width); }));
    files.push_back(filled([](const hw::map_entry& e) {
        return all_ones(e.is_signed ? e.width - 1 : e.width);
    }));

    const auto n = static_cast<std::int64_t>(cfg.n());
    const std::int64_t walk_ends[] = {-n, -1, 0, 1, n};
    for (const std::int64_t s_final : walk_ends) {
        for (const std::int64_t s_max : {std::int64_t{0}, n}) {
            for (const std::int64_t s_min : {-n, std::int64_t{0}}) {
                hw::register_map map = base;
                write(map, "cusum.s_final", s_final);
                write(map, "cusum.s_max", s_max);
                write(map, "cusum.s_min", s_min);
                files.push_back(map);
            }
        }
    }
    if (cfg.tests.has(hw::test_id::runs)) {
        for (const core::runs_interval& iv : cv.t3_intervals) {
            for (const std::int64_t ones : {iv.ones_hi, iv.ones_hi + 1}) {
                for (const std::int64_t runs :
                     {iv.runs_lo - 1, iv.runs_lo, iv.runs_hi,
                      iv.runs_hi + 1}) {
                    hw::register_map map = base;
                    write(map, "cusum.s_final", 2 * ones - n);
                    write(map, "runs.n_runs", runs);
                    files.push_back(map);
                }
            }
        }
    }
    return files;
}

TEST(sw_routines, path_charged_pass_matches_the_accounted_pass)
{
    // A fresh runner has an empty memo: every routine misses, so its
    // verdicts and charges come from the soft_cpu alone.  One warm runner
    // per design replays the charges of the decision paths it has seen;
    // both must agree on every file, on a 16-bit and a 32-bit CPU (the
    // switch between them empties the warm memo), and the warm CPU's
    // lifetime counts must equal the fresh passes' sum.
    std::vector<hw::block_config> designs = core::all_paper_designs();
    hw::block_config marginal = core::paper_design(16, core::tier::high);
    marginal.serial_transfer_marginals = true;
    marginal.name += " (marginal transfer)";
    designs.push_back(marginal);
    hw::test_set every_test;
    for (const hw::test_id id : hw::all_tests) {
        every_test.with(id);
    }
    for (const unsigned log2_n : {8u, 10u, 12u, 14u, 15u}) {
        designs.push_back(core::custom_design(log2_n, every_test));
    }

    for (const hw::block_config& cfg : designs) {
        const core::critical_values cv =
            core::compute_critical_values(cfg, alpha);
        const std::vector<hw::register_map> files = register_files(cfg, cv);
        const core::software_runner warm(cfg, cv);
        for (const unsigned word_bits : {16u, 32u, 16u}) {
            const sw16::cycle_model model = word_bits == 16
                ? sw16::msp430_model()
                : sw16::cortex_like_model();
            sw16::soft_cpu warm_cpu(word_bits);
            sw16::op_counts fresh_lifetime;
            for (unsigned pass = 0; pass < 2; ++pass) {
                for (std::size_t f = 0; f < files.size(); ++f) {
                    const std::string where = cfg.name + " "
                        + std::to_string(word_bits) + "-bit pass "
                        + std::to_string(pass) + " file "
                        + std::to_string(f);
                    const core::software_runner fresh(cfg, cv);
                    sw16::soft_cpu fresh_cpu(word_bits);
                    const core::software_result want =
                        fresh.run(files[f], fresh_cpu);
                    const core::software_result got =
                        warm.run(files[f], warm_cpu);
                    expect_same(got, want, where);
                    EXPECT_EQ(model.cycles(got.total_ops),
                              model.cycles(want.total_ops))
                        << where;
                    fresh_lifetime += fresh_cpu.counts();
                    ASSERT_EQ(test::op_vector(warm_cpu.counts()),
                              test::op_vector(fresh_lifetime))
                        << where;
                }
            }
        }
    }
}

TEST(sw_routines, abs_operands_of_mixed_width_are_charged_in_full)
{
    // The native trace counts a routine's negative abs() operands, which
    // keys its charges only where the operands share one width.  Here the
    // block-frequency file mixes widths, so a negative wide element costs
    // more SUBs than a negative narrow one: the runner must charge that
    // routine on the soft_cpu, not replay the charges of another path
    // with the same count.
    const hw::block_config cfg = n128(core::tier::light);
    const hw::testing_block block(cfg);
    hw::register_map mixed;
    for (const hw::map_entry& e : block.registers().entries()) {
        const unsigned width =
            e.name == "block_frequency.eps[1]" ? 40 : e.width;
        if (e.group.empty()) {
            mixed.add_scalar(e.name, width, e.is_signed);
        } else {
            mixed.add_group_element(e.group, e.name, width, e.is_signed);
        }
    }
    // 2 eps - M is negative below half a block and zero at it.
    const std::uint64_t half = (std::uint64_t{1} << cfg.bf_log2_m) / 2;
    const auto with_negative = [&](std::size_t negative,
                                   std::size_t positive) {
        hw::register_map map = mixed;
        for (std::size_t i = 0; i < map.size(); ++i) {
            if (map.entry(i).name.starts_with("block_frequency.eps[")) {
                map.values()[i] = half;
            }
        }
        const std::string eps = "block_frequency.eps[";
        map.values()[map.index_of(eps + std::to_string(negative) + "]")] =
            half - 1;
        map.values()[map.index_of(eps + std::to_string(positive) + "]")] =
            half + 1;
        return map;
    };
    const hw::register_map narrow_negative = with_negative(0, 1);
    const hw::register_map wide_negative = with_negative(1, 0);

    const core::software_runner warm(cfg,
                                     core::compute_critical_values(cfg, alpha));
    EXPECT_LT(fresh_pass(warm, narrow_negative).total_ops.sub,
              fresh_pass(warm, wide_negative).total_ops.sub);
    sw16::soft_cpu cpu(16);
    for (const hw::register_map* map :
         {&narrow_negative, &wide_negative, &narrow_negative}) {
        expect_same(warm.run(*map, cpu), fresh_pass(warm, *map),
                    map == &wide_negative ? "wide negative"
                                          : "narrow negative");
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

TEST(sw_binding, another_designs_bounds_are_refused_naming_both)
{
    const hw::block_config light = n128(core::tier::light);
    const hw::block_config medium = n128(core::tier::medium);
    const core::critical_values light_cv =
        core::compute_critical_values(light, alpha);
    const auto refused = [](auto&& make, const std::string& design,
                            const std::string& field) {
        try {
            make();
            ADD_FAILURE() << design << " accepted another design's bounds";
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find('"' + design + '"'), std::string::npos)
                << what;
            EXPECT_NE(what.find(field), std::string::npos) << what;
        }
    };
    // The light bounds have no constant for tests 4, 11 and 12.
    refused([&] { core::monitor mon(medium, light_cv); }, medium.name,
            "cfg.tests = " + std::to_string(light.tests.to_raw()) + " (not "
                + std::to_string(medium.tests.to_raw()) + ")");
    // n = 2^16 bounds on an n = 128 block.
    const hw::block_config long_light =
        core::paper_design(16, core::tier::light);
    refused(
        [&] {
            const core::software_runner runner(
                light, core::compute_critical_values(long_light, alpha));
        },
        light.name, "cfg.log2_n = 16 (not 7)");

    // A refused reconfiguration leaves the monitor at its design.
    core::monitor live(light, light_cv);
    refused([&] { live.reconfigure(medium, light_cv); }, medium.name,
            "cfg.tests");
    EXPECT_EQ(live.config(), light);
    EXPECT_EQ(live.block().reconfigurations(), 0u);
    core::monitor fresh(light, light_cv);
    trng::ideal_source src(5);
    const std::vector<std::uint64_t> words = src.generate_words(2);
    expect_same(live.test_packed(words.data(), 2).software,
                fresh.test_packed(words.data(), 2).software,
                "after the refusal");

    // The label, the readout options and disabled tests' parameters are
    // not part of the bounds' design.
    hw::block_config variant = light;
    variant.name = "renamed";
    variant.double_buffered = true;
    variant.serial_transfer_marginals = true;
    variant.serial_m = 6;
    EXPECT_NO_THROW({ const core::monitor mon(variant, light_cv); });
    EXPECT_EQ(core::compute_critical_values(variant, alpha), light_cv);
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

    block.write_control("cfg.tests",
                        n128(core::tier::light).tests.to_raw());
    block.write_control("ctrl.reconfigure", 1);
    ASSERT_EQ(block.reconfigurations(), 1u);
    ASSERT_NE(block.registers().index_of("block_frequency.eps[0]"), eps0);

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
