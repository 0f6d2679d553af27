// 32-segment piecewise-linear approximation of x * log(x) (Fig. 3).
//
// The approximate-entropy test needs phi = sum (nu_i/n) * ln(nu_i/n).  A
// logarithm is far too expensive for the embedded software part, so the
// paper approximates g(x) = -x * ln(x) on [0, 1] with 32 equal-width linear
// segments stored as a lookup table, reporting an approximation error below
// 3 %.  The table lives in Q16 fixed point: inputs are nu_i/n scaled by
// 2^16 (a pure shift when n is a power of two -- sharing trick 2 again),
// outputs are g(x) scaled by 2^16.
#pragma once

#include "sw16/cpu.hpp"

#include <array>
#include <cstdint>

namespace otf::sw16 {

inline constexpr unsigned pwl_segments = 32;
inline constexpr unsigned pwl_fraction_bits = 16; // Q16 in and out
/// Q16 segment geometry: a segment is 2^16 / 32 = 2^11 wide.
inline constexpr unsigned pwl_segment_shift = pwl_fraction_bits - 5;
inline constexpr std::uint32_t pwl_frac_mask =
    (std::uint32_t{1} << pwl_segment_shift) - 1;

/// Breakpoints y_i = round(g(i/32) * 2^16), i = 0..32: constant data in
/// program memory on the real platform.
inline constexpr std::array<std::uint32_t, pwl_segments + 1>
    pwl_breakpoints = {0,     7098,  11357, 14544, 17035, 19008, 20570,
                       21788, 22713, 23381, 23821, 24056, 24105, 23983,
                       23703, 23276, 22713, 22022, 21210, 20285, 19251,
                       18116, 16882, 15556, 14140, 12639, 11056, 9395,
                       7657,  5847,  3965,  2016,  0};

/// Exact g(x) = -x * ln(x) with g(0) = 0, for reference and error reporting.
double xlogx_exact(double x);

/// PWL evaluation in pure host arithmetic (no instruction accounting).
/// `x_q16` in [0, 65536] representing [0, 1]; returns g(x) in Q16.
constexpr std::uint32_t pwl_xlogx_q16(std::uint32_t x_q16)
{
    if (x_q16 >= (1u << pwl_fraction_bits)) {
        return 0; // g(1) = 0; clamp anything at or above 1.0
    }
    const std::uint32_t seg = x_q16 >> pwl_segment_shift;
    const std::int64_t y0 = pwl_breakpoints[seg];
    const std::int64_t y1 = pwl_breakpoints[seg + 1];
    return static_cast<std::uint32_t>(
        y0 + (((y1 - y0) * (x_q16 & pwl_frac_mask)) >> pwl_segment_shift));
}

/// PWL evaluation on a software-platform CPU (soft_cpu or native_cpu):
/// one LUT fetch for the segment's breakpoint pair, then subtract /
/// multiply / shift / add for the interpolation -- the instruction mix
/// behind the paper's "LUT = 24" row (16 + 8 pattern probabilities for
/// the approximate-entropy test).  Returns an 18-bit register equal to
/// pwl_xlogx_q16(x_q16).
template <typename Cpu>
typename Cpu::value pwl_xlogx(Cpu& cpu, typename Cpu::value x_q16)
{
    // The segment index is the top bits of x (free operand addressing).
    cpu.charge_lut(1);
    const auto x = static_cast<std::uint32_t>(Cpu::value_of(x_q16));
    const bool clamped = x >= (1u << pwl_fraction_bits);
    const std::uint32_t seg =
        clamped ? pwl_segments - 1 : x >> pwl_segment_shift;
    const auto y0 = Cpu::constant(pwl_breakpoints[seg], 18);
    const auto y1 = Cpu::constant(pwl_breakpoints[seg + 1], 18);
    const auto frac = Cpu::constant(x & pwl_frac_mask, pwl_segment_shift);
    const auto scaled = cpu.shift_right(cpu.mul(cpu.sub(y1, y0), frac),
                                        pwl_segment_shift);
    const auto y = cpu.add(y0, scaled);
    return Cpu::constant(clamped ? 0 : Cpu::value_of(y), 18);
}

/// Maximum absolute error of the PWL table against g(x) over [0, 1],
/// sampled densely (for the Fig. 3 reproduction).
double pwl_max_abs_error();

/// Maximum relative error over [x_min, x_max].  Relative error is
/// unbounded next to the zeros of g (at both edges the function value
/// sinks below one Q16 LSB, so any fixed-point scheme ends at 100 %);
/// the paper's 3 % claim holds on the interior where g is representable.
double pwl_max_rel_error(double x_min, double x_max = 0.995);

} // namespace otf::sw16
