#include "sw16/cpu.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

namespace otf::sw16 {

op_counts& op_counts::operator+=(const op_counts& o)
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

op_counts operator-(const op_counts& a, const op_counts& b)
{
    op_counts r;
    r.add = a.add - b.add;
    r.sub = a.sub - b.sub;
    r.mul = a.mul - b.mul;
    r.sqr = a.sqr - b.sqr;
    r.shift = a.shift - b.shift;
    r.comp = a.comp - b.comp;
    r.lut = a.lut - b.lut;
    r.read = a.read - b.read;
    return r;
}

soft_cpu::soft_cpu(unsigned word_bits)
    : word_bits_(word_bits),
      word_shift_(static_cast<unsigned>(std::countr_zero(word_bits)))
{
    if (word_bits != 8 && word_bits != 16 && word_bits != 32) {
        throw std::invalid_argument("soft_cpu: word width must be 8/16/32");
    }
}

void soft_cpu::check_width(unsigned bits)
{
    if (bits == 0 || bits > 62) {
        throw std::invalid_argument("soft_cpu: operand width out of range");
    }
}

unsigned soft_cpu::words(unsigned bits) const
{
    check_width(bits);
    // word_bits_ is a power of two: a shift, not a division, on the
    // path every charged instruction takes.
    return (bits + word_bits_ - 1) >> word_shift_;
}

reg soft_cpu::add(reg a, reg b)
{
    // Multiword addition: one ADD (with carry) per word of the result.
    const unsigned result_bits =
        std::min(62u, std::max(a.bits, b.bits) + 1);
    counts_.add += words(result_bits);
    return reg{a.value + b.value, result_bits};
}

reg soft_cpu::sub(reg a, reg b)
{
    const unsigned result_bits =
        std::min(62u, std::max(a.bits, b.bits) + 1);
    counts_.sub += words(result_bits);
    return reg{a.value - b.value, result_bits};
}

reg soft_cpu::mul(reg a, reg b)
{
    // Schoolbook multiword product: one native MUL per limb pair, plus the
    // accumulation adds (charged as ADD, which is why the paper's ADD
    // column dwarfs its MUL column on wide data).
    const unsigned wa = words(a.bits);
    const unsigned wb = words(b.bits);
    counts_.mul += static_cast<std::uint64_t>(wa) * wb;
    if (wa * wb > 1) {
        counts_.add += static_cast<std::uint64_t>(wa) * wb;
    }
    const unsigned result_bits = std::min(62u, a.bits + b.bits);
    return reg{a.value * b.value, result_bits};
}

reg soft_cpu::sqr(reg a)
{
    // Diagonal limb products go to the squarer; the cross products are
    // ordinary multiplies appearing twice (shift-doubled), accumulated with
    // adds.
    const unsigned w = words(a.bits);
    counts_.sqr += w;
    const std::uint64_t cross = static_cast<std::uint64_t>(w) * (w - 1) / 2;
    counts_.mul += cross;
    if (w > 1) {
        counts_.add += cross + w;
    }
    const unsigned result_bits = std::min(62u, 2 * a.bits);
    return reg{a.value * a.value, result_bits};
}

reg soft_cpu::shift_left(reg a, unsigned positions)
{
    const unsigned result_bits = std::min(62u, a.bits + positions);
    // A constant multi-position shift compiles to one shift per word
    // (wide-word move) rather than per bit: the compiler realigns words and
    // shifts the spill.
    counts_.shift += words(result_bits);
    return reg{a.value << positions, result_bits};
}

reg soft_cpu::shift_right(reg a, unsigned positions)
{
    counts_.shift += words(a.bits);
    const unsigned result_bits =
        (positions >= a.bits) ? 1 : a.bits - positions;
    return reg{a.value >> positions, result_bits};
}

bool soft_cpu::less(reg a, reg b)
{
    // Compare word by word from the most significant end; charge the
    // deterministic worst case (embedded code avoids data-dependent time).
    counts_.comp += words(std::max(a.bits, b.bits));
    return a.value < b.value;
}

bool soft_cpu::less_equal(reg a, reg b)
{
    counts_.comp += words(std::max(a.bits, b.bits));
    return a.value <= b.value;
}

bool soft_cpu::greater(reg a, reg b)
{
    counts_.comp += words(std::max(a.bits, b.bits));
    return a.value > b.value;
}

bool soft_cpu::greater_equal(reg a, reg b)
{
    counts_.comp += words(std::max(a.bits, b.bits));
    return a.value >= b.value;
}

reg soft_cpu::abs(reg a)
{
    // Sign test plus conditional negate (subtract from zero).
    counts_.comp += 1;
    if (a.value < 0) {
        counts_.sub += words(a.bits);
        return reg{-a.value, a.bits};
    }
    return a;
}

reg soft_cpu::max(reg a, reg b)
{
    return less(a, b) ? b : a;
}

reg soft_cpu::min(reg a, reg b)
{
    return less(b, a) ? b : a;
}

void soft_cpu::charge_lut(unsigned entries)
{
    counts_.lut += entries;
}

void soft_cpu::charge_read(unsigned bits)
{
    counts_.read += words(bits);
}

unsigned bits_for_unsigned(std::uint64_t value)
{
    return std::max(1u, static_cast<unsigned>(std::bit_width(value)));
}

unsigned bits_for_signed(std::int64_t value)
{
    const std::uint64_t magnitude = (value < 0)
        ? static_cast<std::uint64_t>(-(value + 1)) + 1
        : static_cast<std::uint64_t>(value);
    return bits_for_unsigned(magnitude) + 1;
}

std::string to_string(const op_counts& c)
{
    std::ostringstream out;
    out << "ADD=" << c.add << " SUB=" << c.sub << " MUL=" << c.mul
        << " SQR=" << c.sqr << " SHIFT=" << c.shift << " COMP=" << c.comp
        << " LUT=" << c.lut << " READ=" << c.read;
    return out.str();
}

} // namespace otf::sw16
