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
// memory-mapped peripheral word read).  `native_cpu` offers the same
// operations on plain integers, for routines whose charges are known
// from an earlier soft_cpu run of the same decision path.
#pragma once

#include <algorithm>
#include <bit>
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

    op_counts& operator+=(const op_counts& o)
    {
        add += o.add;
        sub += o.sub;
        mul += o.mul;
        sqr += o.sqr;
        shift += o.shift;
        comp += o.comp;
        lut += o.lut;
        read += o.read;
        return *this;
    }
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
///
/// The charged operations are defined inline here: a window's software
/// pass is a few dozen of them, and an out-of-line call each costs more
/// than the arithmetic it accounts.
class soft_cpu {
public:
    /// What the operations take and return (native_cpu: a plain integer).
    using value = reg;

    /// `word_bits` is the native register width: 16 for the paper's
    /// openMSP430 platform, 32 for the "future work" Cortex-class estimate.
    explicit soft_cpu(unsigned word_bits = 16);

    unsigned word_bits() const { return word_bits_; }
    const op_counts& counts() const { return counts_; }
    void reset_counts() { counts_ = {}; }
    /// Add instructions counted elsewhere (a replayed routine's charges).
    void charge(const op_counts& ops) { counts_ += ops; }

    /// An operand held in a register of the program, and a result put
    /// back in one.
    static reg load(reg r) { return r; }
    static void store(reg& r, reg v) { r = v; }
    static std::int64_t value_of(reg r) { return r.value; }

    /// Words needed to hold a `bits`-wide value.
    unsigned words(unsigned bits) const
    {
        check_width(bits);
        // word_bits_ is a power of two: a shift, not a division, on the
        // path every charged instruction takes.
        return (bits + word_bits_ - 1) >> word_shift_;
    }

    // -- arithmetic ------------------------------------------------------
    reg add(reg a, reg b)
    {
        // Multiword addition: one ADD (with carry) per word of the result.
        const unsigned result_bits =
            std::min(62u, std::max(a.bits, b.bits) + 1);
        counts_.add += words(result_bits);
        return reg{a.value + b.value, result_bits};
    }

    reg sub(reg a, reg b)
    {
        const unsigned result_bits =
            std::min(62u, std::max(a.bits, b.bits) + 1);
        counts_.sub += words(result_bits);
        return reg{a.value - b.value, result_bits};
    }

    reg mul(reg a, reg b)
    {
        // Schoolbook multiword product: one native MUL per limb pair, plus
        // the accumulation adds (charged as ADD, which is why the paper's
        // ADD column dwarfs its MUL column on wide data).
        const unsigned wa = words(a.bits);
        const unsigned wb = words(b.bits);
        counts_.mul += static_cast<std::uint64_t>(wa) * wb;
        if (wa * wb > 1) {
            counts_.add += static_cast<std::uint64_t>(wa) * wb;
        }
        const unsigned result_bits = std::min(62u, a.bits + b.bits);
        return reg{a.value * b.value, result_bits};
    }

    /// Squaring is its own instruction class in Table III (platforms with a
    /// dedicated squarer); costs like a multiply of a value by itself but
    /// charged to SQR for the limb self-products.
    reg sqr(reg a)
    {
        // Diagonal limb products go to the squarer; the cross products are
        // ordinary multiplies appearing twice (shift-doubled), accumulated
        // with adds.
        const unsigned w = words(a.bits);
        counts_.sqr += w;
        const std::uint64_t cross =
            static_cast<std::uint64_t>(w) * (w - 1) / 2;
        counts_.mul += cross;
        if (w > 1) {
            counts_.add += cross + w;
        }
        const unsigned result_bits = std::min(62u, 2 * a.bits);
        return reg{a.value * a.value, result_bits};
    }

    /// Left shift by a constant number of positions.
    reg shift_left(reg a, unsigned positions)
    {
        const unsigned result_bits = std::min(62u, a.bits + positions);
        // A constant multi-position shift compiles to one shift per word
        // (wide-word move) rather than per bit: the compiler realigns words
        // and shifts the spill.
        counts_.shift += words(result_bits);
        return reg{a.value << positions, result_bits};
    }

    /// Arithmetic right shift by a constant number of positions.
    reg shift_right(reg a, unsigned positions)
    {
        counts_.shift += words(a.bits);
        const unsigned result_bits =
            (positions >= a.bits) ? 1 : a.bits - positions;
        return reg{a.value >> positions, result_bits};
    }

    // -- comparison ------------------------------------------------------
    /// a < b, charged one COMP per word of the wider operand.
    bool less(reg a, reg b)
    {
        // Compare word by word from the most significant end; charge the
        // deterministic worst case (embedded code avoids data-dependent
        // time).
        counts_.comp += words(std::max(a.bits, b.bits));
        return a.value < b.value;
    }

    bool less_equal(reg a, reg b)
    {
        counts_.comp += words(std::max(a.bits, b.bits));
        return a.value <= b.value;
    }

    bool greater(reg a, reg b)
    {
        counts_.comp += words(std::max(a.bits, b.bits));
        return a.value > b.value;
    }

    bool greater_equal(reg a, reg b)
    {
        counts_.comp += words(std::max(a.bits, b.bits));
        return a.value >= b.value;
    }

    reg abs(reg a)
    {
        // Sign test plus conditional negate (subtract from zero).
        counts_.comp += 1;
        if (a.value < 0) {
            counts_.sub += words(a.bits);
            return reg{-a.value, a.bits};
        }
        return a;
    }

    reg max(reg a, reg b) { return less(a, b) ? b : a; }
    reg min(reg a, reg b) { return less(b, a) ? b : a; }

    // -- memory ----------------------------------------------------------
    /// Charge a table lookup (e.g. a PWL segment fetch).
    void charge_lut(unsigned entries = 1) { counts_.lut += entries; }
    /// Charge reading a `bits`-wide value from the memory-mapped testing
    /// block (one READ per word, as the 7-bit-addressed interface delivers
    /// word-sized values).
    void charge_read(unsigned bits) { counts_.read += words(bits); }

    /// Program constants are free (immediate operands / program memory).
    static reg constant(std::int64_t value, unsigned bits)
    {
        return reg{value, bits};
    }

private:
    unsigned word_bits_;
    unsigned word_shift_; ///< log2(word_bits_)
    op_counts counts_;

    static void check_width(unsigned bits)
    {
        if (bits == 0 || bits > 62) [[unlikely]] {
            throw std::invalid_argument(
                "soft_cpu: operand width out of range");
        }
    }
};

/// The same operations as soft_cpu on plain integers: no widths, no
/// charges.  It records the data-dependent decisions instead, so a routine
/// run on it can look up what the identical run on a soft_cpu charges
/// (core::software_runner): each comparison outcome, in order, and how
/// many abs() operands were negative.  The comparisons decide the control
/// flow, so they fix every operation and width of the run; an abs() sign
/// changes only its own SUB, so where all of a routine's abs() operands
/// share one width, their count fixes the rest.
class native_cpu {
public:
    using value = std::int64_t;
    static constexpr unsigned max_decisions = 47;
    static constexpr unsigned max_negatives = 0xffff;

    static value load(reg r) { return r.value; }
    static void store(reg& r, value v) { r.value = v; }
    static std::int64_t value_of(value v) { return v; }
    static value constant(std::int64_t v, unsigned) { return v; }

    /// The record as one key: the comparison outcomes in bits 0..47,
    /// newest in bit 0, behind a leading 1 bit; the negative abs()
    /// operands in bits 48..63.  0 past `max_decisions` comparisons or
    /// `max_negatives` negative operands.
    std::uint64_t trace() const
    {
        return depth_ <= max_decisions && negatives_ <= max_negatives
            ? std::uint64_t{negatives_} << 48 | trace_
            : 0;
    }

    value add(value a, value b) { return a + b; }
    value sub(value a, value b) { return a - b; }
    value mul(value a, value b) { return a * b; }
    value sqr(value a) { return a * a; }
    value shift_left(value a, unsigned positions) { return a << positions; }
    value shift_right(value a, unsigned positions) { return a >> positions; }

    bool less(value a, value b) { return decide(a < b); }
    bool less_equal(value a, value b) { return decide(a <= b); }
    bool greater(value a, value b) { return decide(a > b); }
    bool greater_equal(value a, value b) { return decide(a >= b); }
    value abs(value a)
    {
        const bool negative = a < 0;
        negatives_ += negative ? 1 : 0;
        return negative ? -a : a;
    }
    value max(value a, value b) { return less(a, b) ? b : a; }

    void charge_lut(unsigned = 1) {}

private:
    std::uint64_t trace_ = 1;
    unsigned depth_ = 0;
    unsigned negatives_ = 0;

    bool decide(bool outcome)
    {
        trace_ = trace_ << 1 | std::uint64_t{outcome};
        ++depth_;
        return outcome;
    }
};

/// Width of the smallest register holding `value` as an unsigned quantity.
inline unsigned bits_for_unsigned(std::uint64_t value)
{
    return std::max(1u, static_cast<unsigned>(std::bit_width(value)));
}

/// Width of the smallest two's-complement register holding `value`.
inline unsigned bits_for_signed(std::int64_t value)
{
    const std::uint64_t magnitude = (value < 0)
        ? static_cast<std::uint64_t>(-(value + 1)) + 1
        : static_cast<std::uint64_t>(value);
    return bits_for_unsigned(magnitude) + 1;
}

std::string to_string(const op_counts& c);

} // namespace otf::sw16
