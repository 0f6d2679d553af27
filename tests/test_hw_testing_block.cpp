// Tests of the unified testing block: operation protocol, register map
// structure, configuration validation and resource accounting, including
// the paper's four sharing tricks as measurable properties.
#include "core/design_config.hpp"
#include "hw/standalone.hpp"
#include "hw/testing_block.hpp"
#include "trng/sources.hpp"

#include "support/print_config.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace otf;
using core::paper_design;
using core::tier;

TEST(protocol, feed_beyond_n_throws)
{
    hw::testing_block block(paper_design(7, tier::light));
    for (int i = 0; i < 128; ++i) {
        block.feed(true);
    }
    EXPECT_THROW(block.feed(true), std::logic_error);
}

TEST(protocol, feed_span_rejects_overrun)
{
    hw::testing_block block(paper_design(7, tier::light));
    const std::vector<std::uint64_t> words(3, 0);
    // 192 bits into a 128-bit sequence must be refused up front, without
    // consuming anything.
    EXPECT_THROW(block.feed_span(words.data(), 192), std::logic_error);
    EXPECT_EQ(block.bits_consumed(), 0u);
    block.feed_span(words.data(), 0); // an empty span is a no-op
    EXPECT_EQ(block.bits_consumed(), 0u);
    block.feed_span(words.data(), 127);
    block.feed_span(words.data(), 1); // exactly n: accepted
    EXPECT_THROW(block.feed_span(words.data(), 1), std::logic_error);
    EXPECT_EQ(block.bits_consumed(), 128u);
}

TEST(protocol, finish_before_n_throws)
{
    hw::testing_block block(paper_design(7, tier::light));
    block.feed(true);
    EXPECT_THROW(block.finish(), std::logic_error);
}

TEST(protocol, run_rejects_wrong_length)
{
    hw::testing_block block(paper_design(7, tier::light));
    EXPECT_THROW(block.run(bit_sequence(100, true)),
                 std::invalid_argument);
}

TEST(protocol, restart_clears_state_for_next_window)
{
    hw::testing_block block(paper_design(7, tier::medium));
    trng::ideal_source src(3);
    block.run(src.generate(128));
    const std::int64_t first = block.cusum()->s_final();
    block.restart();
    EXPECT_FALSE(block.done());
    EXPECT_EQ(block.bits_consumed(), 0u);

    // An identical second window produces identical counters.
    trng::ideal_source src2(3);
    block.run(src2.generate(128));
    EXPECT_EQ(block.cusum()->s_final(), first);
}

TEST(protocol, done_flag_set_after_finish)
{
    hw::testing_block block(paper_design(7, tier::light));
    trng::ideal_source src(1);
    block.run(src.generate(128));
    EXPECT_TRUE(block.done());
    EXPECT_EQ(block.bits_consumed(), 128u);
}

TEST(register_map, signed_values_sign_extend)
{
    hw::testing_block block(paper_design(7, tier::light));
    block.run(bit_sequence(128, false)); // walk ends at -128
    EXPECT_EQ(block.registers().read_value("cusum.s_final"), -128);
    EXPECT_EQ(block.registers().read_value("cusum.s_min"), -128);
    EXPECT_EQ(block.registers().read_value("cusum.s_max"), 0);
}

TEST(register_map, unknown_name_throws)
{
    hw::testing_block block(paper_design(7, tier::light));
    EXPECT_THROW((void)block.registers().read_value("nonsense"),
                 std::out_of_range);
}

TEST(register_map, grouped_entries_share_one_mux_input)
{
    const hw::testing_block block(paper_design(16, tier::high));
    const hw::register_map& map = block.registers();
    // 28 serial counters arrive through 3 sub-addressed files, the 16
    // block-frequency results through one bank, the 8 template W's through
    // one bank: the top-level mux stays far below the entry count.
    EXPECT_GT(map.size(), 50u);
    EXPECT_LT(map.top_level_inputs(), 25u);
}

/// Every value the block's engines hold, read through their typed
/// accessors, under the name the register map must give it.
std::vector<std::pair<std::string, std::int64_t>>
typed_values(const hw::testing_block& block)
{
    std::vector<std::pair<std::string, std::int64_t>> values;
    const auto add = [&values](std::string name, std::uint64_t value) {
        values.emplace_back(std::move(name),
                            static_cast<std::int64_t>(value));
    };
    const auto element = [](const char* file, std::size_t k) {
        return std::string(file) + "[" + std::to_string(k) + "]";
    };
    const hw::cusum_hw& cusum = *block.cusum();
    values.emplace_back("cusum.s_final", cusum.s_final());
    values.emplace_back("cusum.s_max", cusum.s_max());
    values.emplace_back("cusum.s_min", cusum.s_min());
    if (const hw::runs_hw* runs = block.runs()) {
        add("runs.n_runs", runs->n_runs());
    }
    if (const hw::block_frequency_hw* bf = block.block_frequency()) {
        for (unsigned i = 0; i < bf->block_count(); ++i) {
            add(element("block_frequency.eps", i), bf->ones_in_block(i));
        }
    }
    if (const hw::longest_run_hw* lr = block.longest_run()) {
        for (unsigned c = 0; c < lr->category_count(); ++c) {
            add(element("longest_run.nu", c), lr->category(c));
        }
    }
    if (const hw::non_overlapping_hw* t7 = block.non_overlapping()) {
        for (unsigned i = 0; i < t7->block_count(); ++i) {
            add(element("non_overlapping.w", i), t7->matches_in_block(i));
        }
    }
    if (const hw::overlapping_hw* t8 = block.overlapping()) {
        for (unsigned c = 0; c < t8->category_count(); ++c) {
            add(element("overlapping.nu_temp", c), t8->category(c));
        }
    }
    if (const hw::serial_hw* serial = block.serial()) {
        const unsigned m = serial->m();
        std::vector<std::pair<const char*, unsigned>> files = {
            {"serial.nu_m", m}};
        if (!serial->marginals_in_software()) {
            files.emplace_back("serial.nu_m1", m - 1);
            files.emplace_back("serial.nu_m2", m - 2);
        }
        for (const auto& [file, length] : files) {
            for (std::uint32_t p = 0; p < (1u << length); ++p) {
                add(element(file, p), serial->count(length, p));
            }
        }
    }
    return values;
}

TEST(register_map, each_name_reads_its_engines_counter)
{
    // add_registers (the names) and read_registers (the values) are two
    // lists per engine that must agree.  Both lanes share them, so the
    // lane oracle cannot catch them drifting apart; the typed accessors
    // can.
    std::vector<hw::block_config> designs = {
        paper_design(7, tier::light), paper_design(7, tier::medium),
        paper_design(16, tier::light), paper_design(16, tier::high)};
    designs.push_back(paper_design(7, tier::medium));
    designs.back().serial_transfer_marginals = true;
    for (const bool buffered : {false, true}) {
        for (hw::block_config cfg : designs) {
            cfg.double_buffered = buffered;
            hw::testing_block block(cfg);
            trng::ideal_source src(0x5EED + cfg.log2_n);
            std::vector<std::uint64_t> words(cfg.n() / 64);
            for (unsigned window = 0; window < 3; ++window) {
                src.fill_words(words.data(), words.size());
                block.feed_span(words.data(), cfg.n());
                block.finish();
                const std::string label = cfg.name
                    + (buffered ? " buffered" : "")
                    + (cfg.serial_transfer_marginals ? " marginals" : "")
                    + " window " + std::to_string(window);
                const auto want = typed_values(block);
                const hw::register_map& map = block.registers();
                ASSERT_EQ(map.size(), want.size()) << label;
                for (const auto& [name, value] : want) {
                    EXPECT_EQ(map.read_value(name), value)
                        << label << ": " << name;
                }
                block.restart();
            }
        }
    }
}

TEST(register_map, total_words_counts_multiword_values)
{
    const hw::testing_block block(paper_design(16, tier::light));
    const hw::register_map& map = block.registers();
    unsigned expected = 0;
    for (const auto& e : map.entries()) {
        expected += (e.width + 15) / 16;
    }
    EXPECT_EQ(map.total_words(16), expected);
    EXPECT_LE(map.total_words(32), map.total_words(16));
}

TEST(config_validation, rejects_inconsistent_designs)
{
    hw::block_config cfg = paper_design(16, tier::high);
    cfg.bf_log2_m = 16; // block as long as the sequence
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = paper_design(16, tier::high);
    cfg.lr_v_lo = 9;
    cfg.lr_v_hi = 4;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);

    cfg = paper_design(16, tier::high);
    cfg.t7_template = 0x3FF; // 10 bits into a 9-bit matcher
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(config_validation, unused_fields_must_fit_their_registers)
{
    // A field of a disabled test is still a design register.  One wider
    // than its register is refused at construction, naming it, so a valid
    // design never loses bits on the control bus or in the telemetry log.
    const hw::block_config light = paper_design(7, tier::light);
    const auto expect_refused = [](const hw::block_config& cfg,
                                   const std::string& reg) {
        try {
            const hw::testing_block block(cfg);
            ADD_FAILURE() << reg << " wider than its register was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(reg), std::string::npos)
                << e.what();
        }
    };
    hw::block_config cfg = light;
    cfg.t8_max_count = 0x7C; // test 8 is not in the light tier
    expect_refused(cfg, "cfg.t8_max_count");
    cfg = light;
    cfg.t7_template = 0x1FFFF;
    expect_refused(cfg, "cfg.t7_template");
    cfg = light;
    cfg.serial_m = 0x1F;
    expect_refused(cfg, "cfg.serial_m");

    // At the register's full width the unused field is legal and reads
    // back exactly.
    cfg = light;
    cfg.t8_max_count = 0xF;
    cfg.t7_template = 0xFFFF;
    const hw::testing_block block(cfg);
    EXPECT_EQ(block.read_control("cfg.t8_max_count"), 0xFu);
    EXPECT_EQ(block.read_control("cfg.t7_template"), 0xFFFFu);
}

TEST(config_validation, rejects_unsupported_test_numbers)
{
    // Only the nine Table I tests have hardware.  Any other bit of the
    // tests mask (test 5, bit 0, bit 15) is refused and named, alone or
    // next to supported tests; otherwise a block with no test would pass
    // every window with no verdict at all.
    const hw::block_config light = paper_design(7, tier::light);
    for (const std::uint16_t raw : {0x0020, 0x0001, 0x8000}) {
        const std::uint16_t with_light = light.tests.to_raw() | raw;
        for (const std::uint16_t mask : {raw, with_light}) {
            hw::block_config cfg = light;
            cfg.tests = hw::test_set::from_raw(mask);
            try {
                hw::testing_block block(cfg);
                ADD_FAILURE() << "tests mask " << mask << " was accepted";
            } catch (const std::invalid_argument& e) {
                char hex[8];
                std::snprintf(hex, sizeof hex, "0x%04x", mask);
                EXPECT_NE(std::string(e.what()).find(hex), std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(config_validation, apen_requires_serial)
{
    hw::block_config cfg;
    cfg.log2_n = 16;
    cfg.tests = hw::test_set{}
                    .with(hw::test_id::frequency)
                    .with(hw::test_id::approximate_entropy)
                    .with(hw::test_id::cumulative_sums);
    EXPECT_THROW(cfg.validate(), std::invalid_argument)
        << "trick 3: test 12 has no hardware without test 11's counters";
}

TEST(sharing_tricks, no_dedicated_ones_counter)
{
    // Trick 1: the light design's register map exposes the walk triple and
    // no ones counter; N_ones is software-derived.
    const hw::testing_block block(paper_design(16, tier::light));
    for (const auto& e : block.registers().entries()) {
        EXPECT_EQ(e.name.find("ones"), std::string::npos)
            << "found a ones counter: " << e.name;
    }
}

TEST(sharing_tricks, apen_adds_zero_hardware)
{
    // Trick 3: enabling test 12 on top of test 11 changes nothing in
    // hardware.
    hw::block_config with = paper_design(7, tier::medium);
    hw::block_config without = with;
    // Rebuild the test set minus approximate entropy.
    without.tests = hw::test_set{}
                        .with(hw::test_id::frequency)
                        .with(hw::test_id::block_frequency)
                        .with(hw::test_id::runs)
                        .with(hw::test_id::longest_run)
                        .with(hw::test_id::serial)
                        .with(hw::test_id::cumulative_sums);
    const hw::testing_block a(with);
    const hw::testing_block b(without);
    EXPECT_EQ(a.cost().ffs, b.cost().ffs);
    EXPECT_EQ(a.cost().luts, b.cost().luts);
}

TEST(sharing_tricks, template_tests_share_one_shift_register)
{
    // Trick 4: a design with both template tests carries exactly one
    // template window; its FF cost appears once.
    const hw::block_config both = paper_design(16, tier::high);
    const hw::testing_block block(both);
    unsigned windows = 0;
    for (const auto* child : block.children()) {
        if (child->name() == "template_window") {
            ++windows;
        }
    }
    EXPECT_EQ(windows, 1u);
}

TEST(sharing_tricks, block_engines_carry_no_position_counters)
{
    // Trick 2: block boundaries come from the global counter; the
    // block-frequency engine's own state is one epsilon counter plus the
    // bank, nothing else.
    const hw::testing_block block(paper_design(16, tier::light));
    const auto* bf = block.block_frequency();
    ASSERT_NE(bf, nullptr);
    const unsigned eps_width = 12u + 1u; // M = 4096
    EXPECT_EQ(bf->cost().ffs, eps_width)
        << "bank is LUT-RAM at 16 blocks; only the counter holds FFs";
}

TEST(area_model, tiers_are_ordered_within_each_length)
{
    for (const unsigned log2_n : {16u, 20u}) {
        const auto light =
            hw::testing_block(paper_design(log2_n, tier::light)).cost();
        const auto medium =
            hw::testing_block(paper_design(log2_n, tier::medium)).cost();
        const auto high =
            hw::testing_block(paper_design(log2_n, tier::high)).cost();
        EXPECT_LT(light.ffs, medium.ffs) << "n=2^" << log2_n;
        EXPECT_LT(medium.ffs, high.ffs) << "n=2^" << log2_n;
        EXPECT_LT(light.luts, high.luts) << "n=2^" << log2_n;
    }
}

TEST(area_model, area_grows_with_sequence_length)
{
    const auto small =
        hw::testing_block(paper_design(16, tier::light)).cost();
    const auto large =
        hw::testing_block(paper_design(20, tier::light)).cost();
    EXPECT_LT(small.ffs, large.ffs);
}

TEST(area_model, paper_frequency_claim_holds)
{
    // "All our implementations on FPGA have a maximum working frequency
    // larger than 100 MHz."
    for (const auto& cfg : core::all_paper_designs()) {
        const hw::testing_block block(cfg);
        const auto fpga = rtl::estimate_spartan6(block.cost());
        EXPECT_GT(fpga.max_freq_mhz, 100.0) << cfg.name;
    }
}

TEST(area_model, audit_covers_all_engines)
{
    const hw::testing_block block(paper_design(16, tier::high));
    const std::string audit = rtl::resource_audit(block);
    for (const char* name :
         {"cusum", "runs", "block_frequency", "longest_run",
          "non_overlapping_template", "overlapping_template", "serial",
          "readout_mux", "global_bit_counter"}) {
        EXPECT_NE(audit.find(name), std::string::npos) << name;
    }
}

// -------------------------------------- on-the-fly reconfiguration --

/// Feed one full window into `block` from `source`, span lane or per-bit
/// oracle lane, and finish.
void run_window(hw::testing_block& block, trng::ideal_source& source,
                bool span_lane)
{
    const std::uint64_t n = block.config().n();
    if (span_lane && n >= 64) {
        std::vector<std::uint64_t> words(
            static_cast<std::size_t>(n / 64));
        source.fill_words(words.data(), words.size());
        block.feed_span(words.data(), n);
        block.finish();
    } else {
        for (std::uint64_t i = 0; i < n; ++i) {
            block.feed(source.next_bit());
        }
        block.finish();
    }
}

/// Every mapped value of `a` equals the same-named value of `b`.
void expect_registers_equal(const hw::testing_block& a,
                            const hw::testing_block& b,
                            const std::string& label)
{
    const hw::register_map& ma = a.registers();
    const hw::register_map& mb = b.registers();
    ASSERT_EQ(ma.size(), mb.size()) << label;
    for (std::size_t i = 0; i < ma.size(); ++i) {
        EXPECT_EQ(ma.entry(i).name, mb.entry(i).name) << label;
        EXPECT_EQ(ma.read_raw(i), mb.read_raw(i))
            << label << ": " << ma.entry(i).name;
    }
}

/// `block`, just reprogrammed to `design`, is a fresh block of `design`:
/// no latch, the reset value file and the same Table III inventory, then
/// the same values on the same words and after the next restart.
void expect_matches_fresh(hw::testing_block& block,
                          const hw::block_config& design, bool span_lane,
                          std::uint64_t seed, const std::string& label)
{
    hw::testing_block fresh(design);
    EXPECT_EQ(block.config(), design) << label;
    EXPECT_FALSE(block.latched()) << label;
    expect_registers_equal(block, fresh, label + " before a window");
    EXPECT_EQ(block.cost(), fresh.cost()) << label;
    EXPECT_EQ(rtl::resource_audit(block), rtl::resource_audit(fresh))
        << label;

    trng::ideal_source source_a(seed), source_b(seed);
    run_window(block, source_a, span_lane);
    run_window(fresh, source_b, span_lane);
    expect_registers_equal(block, fresh, label);
    // Double-buffered, the next window's restart keeps both latches.
    block.restart();
    fresh.restart();
    expect_registers_equal(block, fresh, label + " after restart");
}

TEST(reconfigure, reprogrammed_block_is_register_exact_with_fresh)
{
    // The acceptance pin: a testing block reprogrammed through the
    // control registers to design D matches a freshly constructed D --
    // whether D is built (a miss), swapped back in (a resident hit) or
    // rebuilt after eviction, and each time from a block with a dirty
    // window (and, double-buffered, a latched one) -- across all 8 paper
    // designs x both lanes x both buffering modes.
    constexpr std::size_t resident = hw::testing_block::resident_designs;
    const auto designs = core::all_paper_designs();
    for (const bool buffered : {false, true}) {
        for (const bool span_lane : {true, false}) {
            for (std::size_t t = 0; t < designs.size(); ++t) {
                // Neighbouring design points, design(0) the one under test.
                const auto design = [&](std::size_t k) {
                    hw::block_config cfg = designs[(t + k) % designs.size()];
                    cfg.double_buffered = buffered;
                    return cfg;
                };
                const std::string label = design(0).name
                    + (buffered ? " buffered" : "")
                    + (span_lane ? " (span)" : " (per-bit)");
                hw::testing_block block(design(1));
                std::uint64_t seed = 0xD000 + 0x100 * t;
                const auto dirty_then_reprogram =
                    [&](const hw::block_config& to, const std::string& step) {
                        // Any lane dirties the counters; the span lane
                        // is the quicker.
                        trng::ideal_source dirty(seed++);
                        run_window(block, dirty, true);
                        block.restart();
                        EXPECT_EQ(block.latched(), buffered) << label;
                        block.reprogram(to);
                        expect_matches_fresh(block, to, span_lane, seed++,
                                             label + step + " " + to.name);
                    };

                dirty_then_reprogram(design(0), ": built");
                const hw::cusum_hw* const engines = block.cusum();
                dirty_then_reprogram(design(1), ": resident");
                dirty_then_reprogram(design(0), ": resident");
                EXPECT_EQ(block.cusum(), engines)
                    << label << ": the resident set was rebuilt";
                // `resident` more designs evict design(0); it comes back
                // built.
                for (std::size_t k = 2; k < 2 + resident; ++k) {
                    dirty_then_reprogram(design(k), ": built");
                }
                dirty_then_reprogram(design(0), ": after eviction");
                EXPECT_EQ(block.reconfigurations(), 4 + resident) << label;
            }
        }
    }
}

TEST(reconfigure, mid_sequence_strobe_throws)
{
    hw::testing_block block(paper_design(7, tier::light));
    block.feed(true);
    EXPECT_THROW(block.reprogram(paper_design(7, tier::medium)),
                 std::logic_error);
    // The failed strobe must not have changed the live design.
    EXPECT_EQ(block.config().name, "n=128 light");
    EXPECT_EQ(block.reconfigurations(), 0u);
}

TEST(reconfigure, window_boundary_strobe_is_legal)
{
    hw::testing_block block(paper_design(7, tier::light));
    trng::ideal_source source(3);
    run_window(block, source, false);
    block.restart(); // boundary: 0 bits of the next window consumed
    block.reprogram(paper_design(7, tier::medium));
    EXPECT_EQ(block.config().name, "n=128 medium");
    EXPECT_TRUE(block.config().tests.has(hw::test_id::serial));
}

TEST(reconfigure, invalid_staged_design_throws_and_keeps_the_block)
{
    hw::testing_block block(paper_design(7, tier::light));
    hw::block_config bad = paper_design(7, tier::light);
    bad.bf_log2_m = 30; // block longer than the sequence
    EXPECT_THROW(block.reprogram(bad), std::invalid_argument);
    EXPECT_EQ(block.reconfigurations(), 0u);
    // The block still works at the original design.
    trng::ideal_source source(4);
    run_window(block, source, true);
    EXPECT_TRUE(block.done());
}

TEST(reconfigure, unsupported_test_number_on_the_bus_is_refused)
{
    hw::testing_block block(paper_design(7, tier::light));
    for (const std::uint16_t raw : {0x0020, 0x0001, 0x8000}) {
        block.write_control("cfg.tests", raw);
        EXPECT_THROW(block.write_control("ctrl.reconfigure", 1),
                     std::invalid_argument)
            << "tests mask " << raw;
        hw::block_config target = paper_design(7, tier::light);
        target.tests = hw::test_set::from_raw(raw);
        EXPECT_THROW(block.reprogram(target), std::invalid_argument)
            << "tests mask " << raw;
    }
    EXPECT_EQ(block.reconfigurations(), 0u);
    EXPECT_EQ(block.config().tests, paper_design(7, tier::light).tests);
}

TEST(reconfigure, boundary_parameter_values_survive_the_bus)
{
    // Every register width must cover its validated domain: a target
    // the constructor accepts must reprogram without truncation.
    hw::block_config target = paper_design(16, tier::medium);
    target.name = "boundary";
    target.template_length = 16; // validate() accepts [1, 16]
    target.t7_template = 0xFFFF;
    target.lr_v_lo = 60;
    target.lr_v_hi = 127; // up to 2^lr_log2_m (= 128 here)
    target.serial_m = 8;  // validate() accepts [3, 8]
    target.validate();

    hw::testing_block block(paper_design(7, tier::light));
    block.reprogram(target);
    EXPECT_EQ(block.config().template_length, 16u);
    EXPECT_EQ(block.config().t7_template, 0xFFFFu);
    EXPECT_EQ(block.config().lr_v_lo, 60u);
    EXPECT_EQ(block.config().lr_v_hi, 127u);
    EXPECT_EQ(block.config(), target) << "every field, not just these";

    // And the reprogrammed block still matches fresh construction.
    hw::testing_block fresh(target);
    trng::ideal_source source_a(0xB0), source_b(0xB0);
    run_window(block, source_a, true);
    run_window(fresh, source_b, true);
    expect_registers_equal(block, fresh, "boundary");
}

TEST(reconfigure, control_plane_stages_and_reads_back)
{
    hw::testing_block block(paper_design(7, tier::light));
    EXPECT_GT(hw::testing_block::reconfigure_strobe, 0u);
    // Reads return the staged values (initially the live design).
    EXPECT_EQ(block.read_control("cfg.log2_n"), 7u);
    block.write_control("cfg.log2_n", 16);
    EXPECT_EQ(block.read_control("cfg.log2_n"), 16u);
    // Staging alone changes nothing until the strobe.
    EXPECT_EQ(block.config().log2_n, 7u);
    block.write_control("ctrl.reconfigure", 1);
    EXPECT_EQ(block.config().log2_n, 16u);
    EXPECT_EQ(block.reconfigurations(), 1u);
}

TEST(reconfigure, control_plane_does_not_touch_result_accounting)
{
    // The write path must not perturb the Table III interface numbers:
    // controls live on the peripheral write bus, not behind the readout
    // mux, so they belong to the block -- never among the result-plane
    // entries that size() / top_level_inputs() / total_words() account
    // for.
    const hw::testing_block block(paper_design(16, tier::high));
    const hw::register_map& map = block.registers();
    EXPECT_EQ(hw::testing_block::reconfigure_strobe + 1, 15u);
    for (const hw::map_entry& e : map.entries()) {
        EXPECT_EQ(e.name.rfind("cfg.", 0), std::string::npos) << e.name;
        EXPECT_EQ(e.name.rfind("ctrl.", 0), std::string::npos) << e.name;
    }
    for (const hw::config_register& reg : hw::config_registers) {
        EXPECT_EQ(reg.name.rfind("cfg.", 0), 0u) << reg.name;
    }
}

// ---------------------------------------------------- control plane --

TEST(control_plane, write_and_read_back_by_name_and_index)
{
    hw::testing_block block(paper_design(7, tier::light));
    const std::size_t serial_m = 12; // config_registers order
    ASSERT_EQ(hw::config_registers[serial_m].name, "cfg.serial_m");
    EXPECT_EQ(block.read_control(serial_m), 4u);
    block.write_control("cfg.serial_m", 6);
    EXPECT_EQ(block.read_control(serial_m), 6u);
    block.write_control(serial_m, 5);
    EXPECT_EQ(block.read_control("cfg.serial_m"), 5u);
    EXPECT_EQ(block.read_control("ctrl.reconfigure"), 0u)
        << "the strobe reads 0";
    EXPECT_EQ(block.config().serial_m, 4u) << "staged, not applied";
}

TEST(control_plane, writes_mask_to_width)
{
    hw::testing_block block(paper_design(7, tier::light));
    block.write_control("cfg.t8_max_count", 0x1FF);
    EXPECT_EQ(block.read_control("cfg.t8_max_count"), 0xFu)
        << "a 4-bit register keeps 4 bits";
    block.write_control("cfg.tests", 0x1'0000 | 0x2);
    EXPECT_EQ(block.read_control("cfg.tests"), 0x2u);
    // The strobe is one bit wide: a write with bit 0 clear is no strobe.
    block.write_control("ctrl.reconfigure", 2);
    EXPECT_EQ(block.reconfigurations(), 0u);
}

TEST(control_plane, unknown_register_throws_naming_it)
{
    hw::testing_block block(paper_design(7, tier::light));
    const auto expect_naming_ghost = [](auto call) {
        try {
            call();
            ADD_FAILURE() << "cfg.ghost resolved";
        } catch (const std::out_of_range& e) {
            EXPECT_NE(std::string(e.what()).find("cfg.ghost"),
                      std::string::npos)
                << e.what();
        }
    };
    expect_naming_ghost([&] { block.write_control("cfg.ghost", 1); });
    expect_naming_ghost([&] { (void)block.read_control("cfg.ghost"); });
    const std::size_t past = hw::testing_block::reconfigure_strobe + 1;
    EXPECT_THROW(block.write_control(past, 1), std::out_of_range);
    EXPECT_THROW((void)block.read_control(past), std::out_of_range);
}

TEST(control_plane, separate_from_result_plane_accounting)
{
    hw::testing_block block(paper_design(16, tier::high));
    const hw::register_map& map = block.registers();
    const std::size_t size = map.size();
    const unsigned inputs = map.top_level_inputs();
    const unsigned words = map.total_words(16);
    const std::uint64_t layout = map.layout();
    for (std::size_t i = 0; i < hw::testing_block::reconfigure_strobe;
         ++i) {
        block.write_control(i, block.read_control(i));
        EXPECT_THROW((void)map.index_of(
                         std::string(hw::config_registers[i].name)),
                     std::out_of_range);
    }
    EXPECT_EQ(map.size(), size) << "controls are not result entries";
    EXPECT_EQ(map.top_level_inputs(), inputs);
    EXPECT_EQ(map.total_words(16), words);
    EXPECT_EQ(map.layout(), layout);
}

} // namespace
