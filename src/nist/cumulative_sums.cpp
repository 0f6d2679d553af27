#include "nist/special_functions.hpp"
#include "nist/tests.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace otf::nist {

double cumulative_sums_p_value(std::int64_t z, std::size_t n)
{
    if (z <= 0) {
        // A non-positive maximum excursion can only happen for degenerate
        // inputs; the statistic is by construction >= 1 for n >= 1.
        return 0.0;
    }
    const double zd = static_cast<double>(z);
    const double sqrt_n = std::sqrt(static_cast<double>(n));

    // SP 800-22 section 3.13: two theta-function style sums over the normal
    // CDF.  The summation bounds follow the NIST sts reference code exactly,
    // including its *integer* division (truncation towards zero) when
    // computing the k ranges -- the published worked example (n = 10, z = 4,
    // P = 0.4116588) is only reproduced with that convention.
    const auto ratio = static_cast<std::int64_t>(n) / z; // truncated n/z
    double sum1 = 0.0;
    for (std::int64_t k = (-ratio + 1) / 4; k <= (ratio - 1) / 4; ++k) {
        const double a = static_cast<double>(4 * k + 1) * zd;
        const double b = static_cast<double>(4 * k - 1) * zd;
        sum1 += normal_cdf(a / sqrt_n) - normal_cdf(b / sqrt_n);
    }
    double sum2 = 0.0;
    for (std::int64_t k = (-ratio - 3) / 4; k <= (ratio - 3) / 4; ++k) {
        const double a = static_cast<double>(4 * k + 3) * zd;
        const double b = static_cast<double>(4 * k + 1) * zd;
        sum2 += normal_cdf(a / sqrt_n) - normal_cdf(b / sqrt_n);
    }
    return 1.0 - sum1 + sum2;
}

cumulative_sums_result cumulative_sums_test(const bit_sequence& seq)
{
    if (seq.empty()) {
        throw std::invalid_argument("cumulative_sums_test: empty sequence");
    }
    cumulative_sums_result r;
    std::int64_t s = 0;
    r.s_max = 0;
    r.s_min = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        s += seq[i] ? 1 : -1;
        r.s_max = std::max(r.s_max, s);
        r.s_min = std::min(r.s_min, s);
    }
    r.s_final = s;

    // Forward mode: max_k |S_k|.  Backward mode: max_k |S_n - S_{n-k}|;
    // both derive from the walk extrema and the final value, which is all
    // the hardware stores (Table II, last row).
    r.z_forward = std::max(r.s_max, -r.s_min);
    r.z_backward = std::max(r.s_max - r.s_final, r.s_final - r.s_min);
    // The truncated series exceeds 1 for a tiny excursion (1.10 at z = 1,
    // n = 4): clamp the P-value here, not the series the bounds invert.
    const std::size_t n = seq.size();
    r.p_forward =
        std::clamp(cumulative_sums_p_value(r.z_forward, n), 0.0, 1.0);
    r.p_backward =
        std::clamp(cumulative_sums_p_value(r.z_backward, n), 0.0, 1.0);
    return r;
}

} // namespace otf::nist
