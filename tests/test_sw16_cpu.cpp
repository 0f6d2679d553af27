// Tests of the instruction-accounting software platform: arithmetic
// exactness, the multiword cost rules that regenerate Table III's SW rows,
// and the MCU cycle models.
#include "sw16/cpu.hpp"
#include "sw16/cycle_model.hpp"

#include <cstdint>
#include <gtest/gtest.h>
#include <string>

namespace {

using namespace otf::sw16;

TEST(soft_cpu, words_decomposes_by_native_width)
{
    soft_cpu cpu16(16);
    EXPECT_EQ(cpu16.words(1), 1u);
    EXPECT_EQ(cpu16.words(16), 1u);
    EXPECT_EQ(cpu16.words(17), 2u);
    EXPECT_EQ(cpu16.words(32), 2u);
    EXPECT_EQ(cpu16.words(33), 3u);
    soft_cpu cpu32(32);
    EXPECT_EQ(cpu32.words(33), 2u);
}

TEST(soft_cpu, add_charges_one_add_per_word)
{
    soft_cpu cpu(16);
    const reg a{1000, 16};
    const reg b{2000, 16};
    const reg c = cpu.add(a, b);
    EXPECT_EQ(c.value, 3000);
    // Result width 17 -> 2 words on a 16-bit core.
    EXPECT_EQ(cpu.counts().add, 2u);
}

TEST(soft_cpu, narrow_add_is_single_instruction)
{
    soft_cpu cpu(16);
    (void)cpu.add(reg{3, 8}, reg{4, 7});
    EXPECT_EQ(cpu.counts().add, 1u);
}

TEST(soft_cpu, mul_charges_limb_products_and_accumulation)
{
    soft_cpu cpu(16);
    // 20-bit x 20-bit = 2x2 limbs: 4 MUL + 4 accumulation ADD.
    const reg c = cpu.mul(reg{1 << 19, 20}, reg{3, 20});
    EXPECT_EQ(c.value, (std::int64_t{1} << 19) * 3);
    EXPECT_EQ(cpu.counts().mul, 4u);
    EXPECT_EQ(cpu.counts().add, 4u);
}

TEST(soft_cpu, single_word_mul_has_no_accumulation)
{
    soft_cpu cpu(16);
    (void)cpu.mul(reg{100, 8}, reg{50, 8});
    EXPECT_EQ(cpu.counts().mul, 1u);
    EXPECT_EQ(cpu.counts().add, 0u);
}

TEST(soft_cpu, sqr_uses_squarer_for_diagonal_terms)
{
    soft_cpu cpu(16);
    // 20-bit square = 2 limbs: 2 SQR + 1 cross MUL + accumulation.
    const reg c = cpu.sqr(reg{1 << 18, 20});
    EXPECT_EQ(c.value, (std::int64_t{1} << 36));
    EXPECT_EQ(cpu.counts().sqr, 2u);
    EXPECT_EQ(cpu.counts().mul, 1u);
}

TEST(soft_cpu, sqr_value_exact_for_large_inputs)
{
    soft_cpu cpu(16);
    const reg c = cpu.sqr(reg{1048575, 21});
    EXPECT_EQ(c.value, std::int64_t{1048575} * 1048575);
}

TEST(soft_cpu, shifts_change_width_and_value)
{
    soft_cpu cpu(16);
    reg a{5, 8};
    a = cpu.shift_left(a, 4);
    EXPECT_EQ(a.value, 80);
    EXPECT_EQ(a.bits, 12u);
    a = cpu.shift_right(a, 4);
    EXPECT_EQ(a.value, 5);
    EXPECT_GE(cpu.counts().shift, 2u);
}

TEST(soft_cpu, comparisons_charge_comp_per_word)
{
    soft_cpu cpu(16);
    EXPECT_TRUE(cpu.less(reg{1, 32}, reg{2, 32}));
    EXPECT_EQ(cpu.counts().comp, 2u);
    EXPECT_FALSE(cpu.less(reg{2, 8}, reg{1, 8}));
    EXPECT_EQ(cpu.counts().comp, 3u);
}

TEST(soft_cpu, comparison_family_is_consistent)
{
    soft_cpu cpu(16);
    const reg a{5, 8};
    const reg b{7, 8};
    EXPECT_TRUE(cpu.less(a, b));
    EXPECT_TRUE(cpu.less_equal(a, b));
    EXPECT_TRUE(cpu.less_equal(a, a));
    EXPECT_TRUE(cpu.greater(b, a));
    EXPECT_TRUE(cpu.greater_equal(a, a));
}

TEST(soft_cpu, abs_charges_conditional_negate)
{
    soft_cpu cpu(16);
    EXPECT_EQ(cpu.abs(reg{-5, 8}).value, 5);
    EXPECT_EQ(cpu.counts().sub, 1u);
    EXPECT_EQ(cpu.abs(reg{5, 8}).value, 5);
    EXPECT_EQ(cpu.counts().sub, 1u) << "positive input does not negate";
}

TEST(soft_cpu, min_max_track_values)
{
    soft_cpu cpu(16);
    EXPECT_EQ(cpu.max(reg{3, 8}, reg{9, 8}).value, 9);
    EXPECT_EQ(cpu.min(reg{3, 8}, reg{9, 8}).value, 3);
}

TEST(soft_cpu, reads_decompose_into_words)
{
    soft_cpu cpu(16);
    cpu.charge_read(22); // a 22-bit counter arrives as two bus words
    EXPECT_EQ(cpu.counts().read, 2u);
    soft_cpu wide(32);
    wide.charge_read(22);
    EXPECT_EQ(wide.counts().read, 1u);
}

TEST(soft_cpu, reset_counts_clears_everything)
{
    soft_cpu cpu(16);
    (void)cpu.add(reg{1, 16}, reg{1, 16});
    cpu.charge_lut(3);
    cpu.reset_counts();
    EXPECT_EQ(cpu.counts().total(), 0u);
}

TEST(soft_cpu, rejects_exotic_word_widths)
{
    EXPECT_THROW(soft_cpu(12), std::invalid_argument);
    EXPECT_THROW(soft_cpu(64), std::invalid_argument);
}

TEST(op_counts, arithmetic_and_formatting)
{
    op_counts a;
    a.add = 5;
    a.mul = 2;
    op_counts b;
    b.add = 3;
    b.read = 7;
    const op_counts sum = a + b;
    EXPECT_EQ(sum.add, 8u);
    EXPECT_EQ(sum.read, 7u);
    const op_counts diff = sum - b;
    EXPECT_EQ(diff.add, 5u);
    EXPECT_EQ(diff.read, 0u);
    EXPECT_EQ(sum.total(), 8u + 2u + 7u);
    const std::string s = to_string(sum);
    EXPECT_NE(s.find("ADD=8"), std::string::npos);
    EXPECT_NE(s.find("READ=7"), std::string::npos);
}

TEST(soft_cpu, charge_adds_a_whole_vector)
{
    soft_cpu cpu(16);
    (void)cpu.add(reg{1, 8}, reg{2, 8});
    op_counts replayed;
    replayed.sub = 3;
    replayed.read = 2;
    cpu.charge(replayed);
    EXPECT_EQ(cpu.counts().add, 1u);
    EXPECT_EQ(cpu.counts().sub, 3u);
    EXPECT_EQ(cpu.counts().read, 2u);
}

TEST(native_cpu, computes_what_soft_cpu_computes)
{
    soft_cpu soft(16);
    native_cpu native;
    const reg a{-300, 10};
    const reg b{7, 4};
    EXPECT_EQ(native.add(a.value, b.value), soft.add(a, b).value);
    EXPECT_EQ(native.sub(a.value, b.value), soft.sub(a, b).value);
    EXPECT_EQ(native.mul(a.value, b.value), soft.mul(a, b).value);
    EXPECT_EQ(native.sqr(a.value), soft.sqr(a).value);
    EXPECT_EQ(native.shift_left(a.value, 3), soft.shift_left(a, 3).value);
    EXPECT_EQ(native.shift_right(a.value, 3), soft.shift_right(a, 3).value);
    EXPECT_EQ(native.abs(a.value), soft.abs(a).value);
    EXPECT_EQ(native.max(a.value, b.value), soft.max(a, b).value);
}

TEST(native_cpu, trace_keys_the_comparisons_and_the_negative_count)
{
    // The comparison outcomes behind a leading 1 in the low bits, the
    // number of negative abs() operands from bit 48.
    native_cpu cpu;
    EXPECT_EQ(cpu.trace(), 1u);
    (void)cpu.abs(-5);
    (void)cpu.less(3, 2);          // 0
    (void)cpu.max(1, 2);           // less(1, 2): 1
    (void)cpu.greater_equal(2, 2); // 1
    (void)cpu.abs(4);
    EXPECT_EQ(cpu.trace(), std::uint64_t{1} << 48 | 0b1011u);

    // Where the negative operands fall among the comparisons does not
    // matter; the order of the comparisons does.
    native_cpu moved;
    (void)moved.abs(4);
    (void)moved.less(3, 2);
    (void)moved.max(1, 2);
    (void)moved.abs(-7);
    (void)moved.greater_equal(2, 2);
    EXPECT_EQ(moved.trace(), cpu.trace());
    native_cpu reordered;
    (void)reordered.greater_equal(2, 2);
    (void)reordered.less(3, 2);
    (void)reordered.max(1, 2);
    (void)reordered.abs(-5);
    EXPECT_NE(reordered.trace(), cpu.trace());

    native_cpu longest;
    for (unsigned i = 0; i < native_cpu::max_decisions; ++i) {
        (void)longest.less(0, 1);
    }
    EXPECT_EQ(longest.trace(), (std::uint64_t{1} << 48) - 1);
    (void)longest.less(0, 1);
    EXPECT_EQ(longest.trace(), 0u) << "48 comparisons do not fit a key";

    native_cpu most_negative;
    for (unsigned i = 0; i < native_cpu::max_negatives; ++i) {
        (void)most_negative.abs(-1);
    }
    EXPECT_EQ(most_negative.trace(),
              std::uint64_t{native_cpu::max_negatives} << 48 | 1u);
    (void)most_negative.abs(-1);
    EXPECT_EQ(most_negative.trace(), 0u);
}

TEST(bits_for, unsigned_and_signed_widths)
{
    EXPECT_EQ(bits_for_unsigned(0), 1u);
    EXPECT_EQ(bits_for_unsigned(1), 1u);
    EXPECT_EQ(bits_for_unsigned(2), 2u);
    EXPECT_EQ(bits_for_unsigned(255), 8u);
    EXPECT_EQ(bits_for_unsigned(256), 9u);
    EXPECT_EQ(bits_for_signed(127), 8u);
    EXPECT_EQ(bits_for_signed(-128), 8u + 1u)
        << "conservative symmetric sizing";
}

TEST(cycle_model, msp430_multiplies_are_expensive)
{
    const cycle_model m = msp430_model();
    op_counts ops;
    ops.mul = 10;
    ops.add = 10;
    EXPECT_GT(m.cycles(ops), 10u * m.add + 10u * m.add)
        << "peripheral multiplier costs more than ALU adds";
}

TEST(cycle_model, thirty_two_bit_platform_is_faster)
{
    const cycle_model slow = msp430_model();
    const cycle_model fast = cortex_like_model();
    op_counts ops;
    ops.add = 100;
    ops.mul = 50;
    ops.read = 30;
    EXPECT_LT(fast.cycles(ops), slow.cycles(ops));
}

} // namespace
