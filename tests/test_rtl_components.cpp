// Unit tests for the RTL component models: functional behaviour (wrap,
// saturation, tracking, shifting) and structural bookkeeping (reset
// recursion, hierarchy audit).
#include "rtl/arith.hpp"
#include "rtl/comparators.hpp"
#include "rtl/counter.hpp"
#include "rtl/mux.hpp"
#include "rtl/registers.hpp"
#include "rtl/shift_register.hpp"

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>

namespace {

using namespace otf::rtl;

TEST(counter, counts_and_wraps_at_width)
{
    counter c("c", 3);
    for (int i = 0; i < 7; ++i) {
        c.step();
    }
    EXPECT_EQ(c.value(), 7u);
    c.step();
    EXPECT_EQ(c.value(), 0u) << "3-bit counter must wrap at 8";
}

TEST(counter, enable_gates_the_step)
{
    counter c("c", 8);
    c.step(false);
    EXPECT_EQ(c.value(), 0u);
    c.step(true);
    EXPECT_EQ(c.value(), 1u);
}

TEST(counter, clear_resets_value)
{
    counter c("c", 8);
    c.step();
    c.step();
    c.clear();
    EXPECT_EQ(c.value(), 0u);
}

TEST(counter, rejects_invalid_width)
{
    EXPECT_THROW(counter("c", 0), std::invalid_argument);
    EXPECT_THROW(counter("c", 64), std::invalid_argument);
}

TEST(counter, load_masks_to_width)
{
    counter c("c", 4);
    c.load(0xFFu);
    EXPECT_EQ(c.value(), 0xFu);
}

TEST(saturating_counter, sticks_at_maximum)
{
    saturating_counter c("c", 2);
    for (int i = 0; i < 10; ++i) {
        c.step();
    }
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.saturated());
}

TEST(saturating_counter, costs_more_than_plain_counter)
{
    counter plain("p", 8);
    saturating_counter sat("s", 8);
    EXPECT_GT(sat.cost().luts, plain.cost().luts)
        << "saturation adds the all-ones detect";
    EXPECT_EQ(sat.cost().ffs, plain.cost().ffs);
}

TEST(up_down_counter, tracks_walk)
{
    up_down_counter c("c", 8);
    c.step(true);
    c.step(true);
    c.step(false);
    EXPECT_EQ(c.value(), 1);
    c.step(false);
    c.step(false);
    EXPECT_EQ(c.value(), -1);
}

TEST(up_down_counter, range_matches_width)
{
    up_down_counter c("c", 4);
    EXPECT_EQ(c.min_representable(), -8);
    EXPECT_EQ(c.max_representable(), 7);
}

TEST(max_tracker, keeps_maximum_only)
{
    max_tracker t("t", 8);
    t.observe(3);
    t.observe(-5);
    t.observe(7);
    t.observe(2);
    EXPECT_EQ(t.value(), 7);
}

TEST(min_tracker, keeps_minimum_only)
{
    min_tracker t("t", 8);
    t.observe(3);
    t.observe(-5);
    t.observe(-2);
    EXPECT_EQ(t.value(), -5);
}

TEST(trackers, start_at_zero_like_the_walk)
{
    max_tracker mx("mx", 8);
    min_tracker mn("mn", 8);
    // A walk that never goes positive leaves S_max at 0, and vice versa.
    mx.observe(-3);
    mn.observe(4);
    EXPECT_EQ(mx.value(), 0);
    EXPECT_EQ(mn.value(), 0);
}

TEST(data_register, loads_and_masks)
{
    data_register r("r", 4);
    r.load(0x1F);
    EXPECT_EQ(r.value(), 0xFu);
}

TEST(register_bank, stores_and_reads_slots)
{
    register_bank bank("b", 4, 6);
    bank.write(0, 10);
    bank.write(3, 63);
    EXPECT_EQ(bank.read(0), 10u);
    EXPECT_EQ(bank.read(3), 63u);
    EXPECT_EQ(bank.read(1), 0u);
}

TEST(register_bank, throws_on_out_of_range_slot)
{
    register_bank bank("b", 4, 6);
    EXPECT_THROW(bank.write(4, 1), std::out_of_range);
    EXPECT_THROW((void)bank.read(7), std::out_of_range);
}

TEST(register_bank, shallow_banks_use_ffs_deep_banks_use_lutram)
{
    register_bank shallow("s", 4, 8);
    register_bank deep("d", 64, 8);
    EXPECT_EQ(shallow.cost().ffs, 4u * 8u);
    EXPECT_EQ(deep.cost().ffs, 0u) << "deep banks infer LUT-RAM";
    EXPECT_GT(deep.cost().luts, 0u);
}

TEST(shift_register, window_is_lsb_newest)
{
    shift_register sr("sr", 4);
    sr.shift(true);  // t-3 ... oldest
    sr.shift(false);
    sr.shift(true);
    sr.shift(true);  // newest
    // window bit0 = newest (1), bit1 = 1, bit2 = 0, bit3 = oldest (1)
    EXPECT_EQ(sr.window(), 0b1011u);
}

TEST(shift_register, fill_tracks_priming)
{
    shift_register sr("sr", 3);
    EXPECT_FALSE(sr.full());
    sr.shift(true);
    sr.shift(true);
    EXPECT_FALSE(sr.full());
    sr.shift(true);
    EXPECT_TRUE(sr.full());
}

TEST(shift_register, drops_bits_older_than_length)
{
    shift_register sr("sr", 2);
    sr.shift(true);
    sr.shift(false);
    sr.shift(false);
    EXPECT_EQ(sr.window(), 0u);
}

TEST(shift_register, rejects_invalid_length)
{
    EXPECT_THROW(shift_register("sr", 0), std::invalid_argument);
    EXPECT_THROW(shift_register("sr", 64), std::invalid_argument);
}

TEST(shift_register, shift_span_matches_per_bit_shifts)
{
    // A fixed pseudo-random span; every length from empty to five words,
    // on a short and a long register, from a primed start.
    std::uint64_t words[5];
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t& w : words) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        w = x;
    }
    for (const unsigned length : {4u, 63u}) {
        for (std::size_t nbits = 0; nbits <= 5 * 64; ++nbits) {
            shift_register bulk("bulk", length);
            shift_register serial("serial", length);
            bulk.shift(true);
            serial.shift(true);
            bulk.shift_span(words, nbits);
            for (std::size_t i = 0; i < nbits; ++i) {
                serial.shift(((words[i / 64] >> (i % 64)) & 1u) != 0);
            }
            ASSERT_EQ(bulk.window(), serial.window())
                << "length " << length << " nbits " << nbits;
            ASSERT_EQ(bulk.fill(), serial.fill())
                << "length " << length << " nbits " << nbits;
        }
    }
}

TEST(pattern_matcher, equality_against_constant)
{
    pattern_matcher m("m", 9, 0b000000001);
    EXPECT_TRUE(m.matches(0b000000001));
    EXPECT_FALSE(m.matches(0b100000001));
    // Bits above the width are ignored.
    EXPECT_TRUE(m.matches(0b1111000000001 & 0x1FF));
}

TEST(magnitude_comparator, at_least_threshold)
{
    magnitude_comparator c("c", 8, 100);
    EXPECT_TRUE(c.at_least(100));
    EXPECT_TRUE(c.at_least(255));
    EXPECT_FALSE(c.at_least(99));
}

TEST(multiplier, multiplies_and_reports_width)
{
    multiplier m("m", 8, 8);
    EXPECT_EQ(m.multiply(200, 200), 40000u);
    EXPECT_EQ(m.result_width(), 16u);
}

TEST(accumulator, accumulates_with_wrap_mask)
{
    accumulator a("a", 8);
    a.accumulate(200);
    a.accumulate(100);
    EXPECT_EQ(a.value(), 44u) << "8-bit accumulator wraps mod 256";
    a.clear();
    EXPECT_EQ(a.value(), 0u);
}

TEST(readout_mux, depth_is_log4_of_inputs)
{
    EXPECT_EQ(readout_mux("m", 1, 16).depth(), 0u);
    EXPECT_EQ(readout_mux("m", 4, 16).depth(), 1u);
    EXPECT_EQ(readout_mux("m", 5, 16).depth(), 2u);
    EXPECT_EQ(readout_mux("m", 64, 16).depth(), 3u);
    EXPECT_EQ(readout_mux("m", 128, 16).depth(), 4u);
}

TEST(readout_mux, rejects_more_than_7_bit_addressing)
{
    EXPECT_THROW(readout_mux("m", 129, 16), std::invalid_argument);
}

// A small composite verifies hierarchy recursion: cost sums children and
// reset reaches them.
class composite : public component {
public:
    composite() : component("composite"), a_("a", 4), b_("b", 8)
    {
        adopt(a_);
        adopt(b_);
    }
    counter a_;
    counter b_;

protected:
    resources self_cost() const override
    {
        return resources{.ffs = 1, .luts = 1, .carry_bits = 0,
                         .mux_levels = 0};
    }
    void self_reset() override {}
};

TEST(component, cost_recurses_over_children)
{
    composite c;
    const resources r = c.cost();
    EXPECT_EQ(r.ffs, 1u + 4u + 8u);
    EXPECT_EQ(r.luts, 1u + 4u + 8u);
}

TEST(component, reset_recurses_over_children)
{
    composite c;
    c.a_.step();
    c.b_.step();
    c.reset();
    EXPECT_EQ(c.a_.value(), 0u);
    EXPECT_EQ(c.b_.value(), 0u);
}

TEST(component, audit_lists_every_child)
{
    composite c;
    const std::string audit = resource_audit(c);
    EXPECT_NE(audit.find("composite"), std::string::npos);
    EXPECT_NE(audit.find("a:"), std::string::npos);
    EXPECT_NE(audit.find("b:"), std::string::npos);
}

} // namespace
