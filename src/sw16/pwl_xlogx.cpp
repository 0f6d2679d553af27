#include "sw16/pwl_xlogx.hpp"

#include <cmath>

namespace otf::sw16 {

double xlogx_exact(double x)
{
    if (x <= 0.0) {
        return 0.0;
    }
    return -x * std::log(x);
}

double pwl_max_abs_error()
{
    double worst = 0.0;
    for (std::uint32_t x = 0; x <= (1u << pwl_fraction_bits); ++x) {
        const double exact =
            xlogx_exact(static_cast<double>(x)
                        / static_cast<double>(1u << pwl_fraction_bits));
        const double approx = static_cast<double>(pwl_xlogx_q16(x))
            / static_cast<double>(1u << pwl_fraction_bits);
        worst = std::max(worst, std::fabs(exact - approx));
    }
    return worst;
}

double pwl_max_rel_error(double x_min, double x_max)
{
    double worst = 0.0;
    for (std::uint32_t x = 1; x < (1u << pwl_fraction_bits); ++x) {
        const double xd = static_cast<double>(x)
            / static_cast<double>(1u << pwl_fraction_bits);
        if (xd < x_min || xd > x_max) {
            continue;
        }
        const double exact = xlogx_exact(xd);
        if (exact <= 0.0) {
            continue;
        }
        const double approx = static_cast<double>(pwl_xlogx_q16(x))
            / static_cast<double>(1u << pwl_fraction_bits);
        worst = std::max(worst, std::fabs(exact - approx) / exact);
    }
    return worst;
}

} // namespace otf::sw16
