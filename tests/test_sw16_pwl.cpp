// Tests of the 32-segment PWL approximation of x log x (Fig. 3): error
// bounds, structural properties, and agreement between the plain and
// instruction-accounted evaluation paths.
#include "sw16/pwl_xlogx.hpp"

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>

namespace {

using namespace otf::sw16;

TEST(pwl, endpoints_are_exact_zeros)
{
    EXPECT_EQ(pwl_xlogx_q16(0), 0u);
    EXPECT_EQ(pwl_xlogx_q16(1u << 16), 0u);
}

TEST(pwl, breakpoints_are_exact_to_rounding)
{
    for (unsigned i = 0; i <= pwl_segments; ++i) {
        const std::uint32_t x = i * (1u << 11);
        const double exact = xlogx_exact(static_cast<double>(i) / 32.0);
        const double approx = static_cast<double>(pwl_xlogx_q16(x)) / 65536.0;
        EXPECT_NEAR(approx, exact, 1.0 / 65536.0) << "breakpoint " << i;
    }
}

TEST(pwl, breakpoint_table_is_the_rounded_function)
{
    for (unsigned i = 0; i <= pwl_segments; ++i) {
        const double y = xlogx_exact(static_cast<double>(i) / pwl_segments);
        EXPECT_EQ(pwl_breakpoints[i],
                  static_cast<std::uint32_t>(std::lround(y * 65536.0)))
            << "breakpoint " << i;
    }
    static_assert(pwl_xlogx_q16(1u << 15) == pwl_breakpoints[16]);
}

TEST(pwl, paper_error_bound_holds)
{
    // "resulting in less than 3% error": relative error on the interior
    // where g exceeds the fixed-point resolution (next to the zeros of g
    // at x = 0 and x = 1 any absolute scheme ends at 100% relative
    // error).  The absolute error is bounded by the first segment's chord
    // (~0.0116 at x = 1/64).
    EXPECT_LT(pwl_max_rel_error(1.0 / 32.0, 0.995), 0.03);
    EXPECT_LT(pwl_max_abs_error(), 0.012);
}

TEST(pwl, chord_always_underestimates_concave_g)
{
    // g(x) = -x ln x is concave, so linear interpolation between exact
    // breakpoints can never exceed the function by more than the
    // breakpoint rounding (1 LSB).
    for (std::uint32_t x = 1; x < (1u << 16); x += 37) {
        const double exact = xlogx_exact(static_cast<double>(x) / 65536.0);
        const double approx =
            static_cast<double>(pwl_xlogx_q16(x)) / 65536.0;
        EXPECT_LE(approx, exact + 2.0 / 65536.0) << "x=" << x;
    }
}

TEST(pwl, maximum_near_one_over_e)
{
    // The function peaks at x = 1/e with value 1/e = 0.3679.
    std::uint32_t best_x = 0;
    std::uint32_t best_y = 0;
    for (std::uint32_t x = 0; x <= (1u << 16); x += 16) {
        const std::uint32_t y = pwl_xlogx_q16(x);
        if (y > best_y) {
            best_y = y;
            best_x = x;
        }
    }
    EXPECT_NEAR(static_cast<double>(best_x) / 65536.0, 1.0 / M_E, 0.04);
    EXPECT_NEAR(static_cast<double>(best_y) / 65536.0, 1.0 / M_E, 0.01);
}

TEST(pwl, monotone_within_segments)
{
    // Within one linear segment the output moves monotonically.
    for (unsigned seg = 0; seg < pwl_segments; ++seg) {
        const std::uint32_t x0 = seg << 11;
        const std::uint32_t y_start = pwl_xlogx_q16(x0);
        const std::uint32_t y_end = pwl_xlogx_q16(x0 + 2047);
        const std::uint32_t y_mid = pwl_xlogx_q16(x0 + 1024);
        if (y_start <= y_end) {
            EXPECT_GE(y_mid + 1, y_start);
            EXPECT_LE(y_mid, y_end + 1);
        } else {
            EXPECT_LE(y_mid, y_start + 1);
            EXPECT_GE(y_mid + 1, y_end);
        }
    }
}

TEST(pwl, accounted_path_matches_plain_path)
{
    soft_cpu cpu(16);
    for (std::uint32_t x = 0; x <= (1u << 16); x += 997) {
        const reg r = pwl_xlogx(cpu, reg{static_cast<std::int64_t>(x), 17});
        EXPECT_EQ(r.value, static_cast<std::int64_t>(pwl_xlogx_q16(x)))
            << "x=" << x;
    }
}

TEST(pwl, native_path_matches_accounted_path)
{
    soft_cpu soft(16);
    native_cpu native;
    for (std::uint32_t x = 0; x <= 70000; x += 13) {
        const auto v = static_cast<std::int64_t>(x);
        EXPECT_EQ(pwl_xlogx(native, v), pwl_xlogx(soft, reg{v, 17}).value)
            << "x=" << x;
    }
    EXPECT_EQ(native.trace(), 1u) << "the clamp changes no charge";
}

TEST(pwl, accounted_path_charges_one_lut_per_eval)
{
    soft_cpu cpu(16);
    const unsigned evals = 24; // 16 + 8, the approximate-entropy pattern
    for (unsigned i = 0; i < evals; ++i) {
        (void)pwl_xlogx(cpu, reg{static_cast<std::int64_t>(i * 2048), 17});
    }
    EXPECT_EQ(cpu.counts().lut, evals)
        << "Table III LUT row = one lookup per pattern probability";
    EXPECT_GE(cpu.counts().mul, evals);
    EXPECT_GE(cpu.counts().add, evals);
}

TEST(pwl, out_of_range_clamps_to_zero)
{
    EXPECT_EQ(pwl_xlogx_q16(70000), 0u);
}

} // namespace
