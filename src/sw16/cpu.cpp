#include "sw16/cpu.hpp"

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

std::string to_string(const op_counts& c)
{
    std::ostringstream out;
    out << "ADD=" << c.add << " SUB=" << c.sub << " MUL=" << c.mul
        << " SQR=" << c.sqr << " SHIFT=" << c.shift << " COMP=" << c.comp
        << " LUT=" << c.lut << " READ=" << c.read;
    return out.str();
}

} // namespace otf::sw16
