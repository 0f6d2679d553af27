// Reproduction of Fig. 3: "PWL approximation of the function x log(x)".
//
// Prints the exact curve and the 32-segment piecewise-linear approximation
// as a series over [0, 1] (the paper's plot), plus the error profile
// behind the "<3% error" claim.
#include "sw16/pwl_xlogx.hpp"

#include <cmath>
#include <cstdio>

using namespace otf::sw16;

int main()
{
    std::printf("Fig. 3 -- 32-segment PWL approximation of x log(x) in "
                "Q16\n\n");
    std::printf("%8s %12s %12s %12s %10s\n", "x", "f(x)", "PWL(x)",
                "abs err", "rel err");
    for (unsigned i = 0; i <= 64; ++i) {
        const double x = static_cast<double>(i) / 64.0;
        const auto xq =
            static_cast<std::uint32_t>(std::lround(x * 65536.0));
        const double exact = xlogx_exact(x);
        const double approx =
            static_cast<double>(pwl_xlogx_q16(xq)) / 65536.0;
        const double abs_err = std::fabs(exact - approx);
        const double rel_err = (exact > 1e-9) ? abs_err / exact : 0.0;
        std::printf("%8.4f %12.6f %12.6f %12.6f %9.2f%%\n", x, exact,
                    approx, abs_err, 100.0 * rel_err);
    }

    std::printf("\nerror summary:\n");
    std::printf("  max absolute error over [0,1]:        %.6f "
                "(first-segment chord, at x ~= 1/64)\n",
                pwl_max_abs_error());
    std::printf("  max relative error on [1/32, 0.995]:  %.2f%%  "
                "(paper: < 3%%)\n",
                100.0 * pwl_max_rel_error(1.0 / 32.0, 0.995));
    std::printf("  max relative error on [1/16, 0.9]:    %.2f%%\n",
                100.0 * pwl_max_rel_error(1.0 / 16.0, 0.9));
    std::printf("\nthe approximation is within the paper's bound on the "
                "interior; relative\nerror is unbounded only next to the "
                "zeros of f where the function sinks\nbelow the Q16 "
                "resolution (see \"Calibrating the ApEn bound\" in\n"
                "docs/ARCHITECTURE.md).\n");
    return 0;
}
