// Instruction-accounting model of the embedded software platform.
//
// The paper evaluates the software half of every test as an instruction
// count on a 16-bit architecture (Table III, "SW: 16-bit instructions"):
// operations on data wider than the machine word are decomposed into
// multiple native instructions (e.g. a 32-bit add is two ADDs with carry on
// a 16-bit core).  `soft_cpu` reproduces that measurement: every arithmetic
// helper computes the exact mathematical result (so the verdicts are real)
// while charging the number of native instructions a `word_bits()`-wide
// core would execute, based on the declared operand widths.
//
// The instruction classes match the paper's table rows exactly:
// ADD, SUB, MUL, SQR, SHIFT, COMP, LUT (table lookup) and READ (one
// memory-mapped peripheral word read).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace otf::sw16 {

/// Instruction-count vector, one entry per Table III row.
struct op_counts {
    std::uint64_t add = 0;
    std::uint64_t sub = 0;
    std::uint64_t mul = 0;
    std::uint64_t sqr = 0;
    std::uint64_t shift = 0;
    std::uint64_t comp = 0;
    std::uint64_t lut = 0;
    std::uint64_t read = 0;

    op_counts& operator+=(const op_counts& o);
    friend op_counts operator+(op_counts a, const op_counts& b)
    {
        a += b;
        return a;
    }
    friend op_counts operator-(const op_counts& a, const op_counts& b);
    std::uint64_t total() const
    {
        return add + sub + mul + sqr + shift + comp + lut + read;
    }
};

/// A value in the software routine: the exact number plus the register
/// width it occupies on the target, which determines instruction costs.
struct reg {
    std::int64_t value = 0;
    unsigned bits = 16;
};

/// Width-accounted arithmetic core.
///
/// Widths are propagated conservatively (add grows by one bit, multiply
/// sums operand widths) exactly as a careful embedded implementation would
/// size its intermediate variables.
class soft_cpu {
public:
    /// `word_bits` is the native register width: 16 for the paper's
    /// openMSP430 platform, 32 for the "future work" Cortex-class estimate.
    explicit soft_cpu(unsigned word_bits = 16);

    unsigned word_bits() const { return word_bits_; }
    const op_counts& counts() const { return counts_; }
    void reset_counts() { counts_ = {}; }

    /// Words needed to hold a `bits`-wide value.
    unsigned words(unsigned bits) const;

    // -- arithmetic ------------------------------------------------------
    reg add(reg a, reg b);
    reg sub(reg a, reg b);
    reg mul(reg a, reg b);
    /// Squaring is its own instruction class in Table III (platforms with a
    /// dedicated squarer); costs like a multiply of a value by itself but
    /// charged to SQR for the limb self-products.
    reg sqr(reg a);
    /// Left shift by a constant number of positions.
    reg shift_left(reg a, unsigned positions);
    /// Arithmetic right shift by a constant number of positions.
    reg shift_right(reg a, unsigned positions);

    // -- comparison ------------------------------------------------------
    /// a < b, charged one COMP per word of the wider operand.
    bool less(reg a, reg b);
    bool less_equal(reg a, reg b);
    bool greater(reg a, reg b);
    bool greater_equal(reg a, reg b);
    reg abs(reg a);
    reg max(reg a, reg b);
    reg min(reg a, reg b);

    // -- memory ----------------------------------------------------------
    /// Charge a table lookup (e.g. a PWL segment fetch).
    void charge_lut(unsigned entries = 1);
    /// Charge reading a `bits`-wide value from the memory-mapped testing
    /// block (one READ per word, as the 7-bit-addressed interface delivers
    /// word-sized values).
    void charge_read(unsigned bits);

    /// Program constants are free (immediate operands / program memory).
    static reg constant(std::int64_t value, unsigned bits)
    {
        return reg{value, bits};
    }

private:
    unsigned word_bits_;
    unsigned word_shift_; ///< log2(word_bits_)
    op_counts counts_;

    static void check_width(unsigned bits);
};

/// Width of the smallest register holding `value` as an unsigned quantity.
unsigned bits_for_unsigned(std::uint64_t value);
/// Width of the smallest two's-complement register holding `value`.
unsigned bits_for_signed(std::int64_t value);

std::string to_string(const op_counts& c);

} // namespace otf::sw16
