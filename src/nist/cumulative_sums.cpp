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
    //   sum1 = sum_k Phi((4k + 1) z / sqrt n) - Phi((4k - 1) z / sqrt n),
    //   sum2 = sum_k Phi((4k + 3) z / sqrt n) - Phi((4k + 1) z / sqrt n),
    // each accumulated in increasing k.  One pass over k serves both: it
    // evaluates Phi once per odd multiple of z (the lower value of step k
    // is the upper value of step k - 1).  Once the lower value rounds to
    // 1, every later term of both sums is 1 - 1 = +0.0 in double (Phi is
    // monotone and at most 1), and adding +0.0 leaves a sum of
    // non-negative terms as it is: the pass stops there.
    // test_nist_oracles checks this against the full series.
    const std::int64_t first1 = (-ratio + 1) / 4;
    const std::int64_t last1 = (ratio - 1) / 4;
    const std::int64_t first2 = (-ratio - 3) / 4;
    const std::int64_t last2 = (ratio - 3) / 4;
    const auto phi = [&](std::int64_t odd) {
        return normal_cdf(static_cast<double>(odd) * zd / sqrt_n);
    };
    double sum1 = 0.0;
    double sum2 = 0.0;
    const std::int64_t first = std::min(first1, first2);
    double lower = phi(4 * first - 1);
    for (std::int64_t k = first; k <= std::max(last1, last2); ++k) {
        if (lower == 1.0) {
            break;
        }
        const double middle = phi(4 * k + 1);
        const double upper = phi(4 * k + 3);
        if (k >= first1 && k <= last1) {
            sum1 += middle - lower;
        }
        if (k >= first2 && k <= last2) {
            sum2 += upper - middle;
        }
        lower = upper;
    }
    return 1.0 - sum1 + sum2;
}

cumulative_sums_result cumulative_sums_test(const bit_sequence& seq)
{
    if (seq.empty()) {
        throw std::invalid_argument("cumulative_sums_test: empty sequence");
    }
    return cumulative_sums_test(random_walk(seq), seq.size());
}

cumulative_sums_result cumulative_sums_test(const walk_extent& walk,
                                            std::size_t n)
{
    cumulative_sums_result r;
    r.s_max = walk.max;
    r.s_min = walk.min;
    r.s_final = walk.final;

    // Forward mode: max_k |S_k|.  Backward mode: max_k |S_n - S_{n-k}|;
    // both derive from the walk extrema and the final value, which is all
    // the hardware stores (Table II, last row).
    r.z_forward = std::max(r.s_max, -r.s_min);
    r.z_backward = std::max(r.s_max - r.s_final, r.s_final - r.s_min);
    // The truncated series exceeds 1 for a tiny excursion (1.10 at z = 1,
    // n = 4): clamp the P-value here, not the series the bounds invert.
    r.p_forward =
        std::clamp(cumulative_sums_p_value(r.z_forward, n), 0.0, 1.0);
    r.p_backward = r.z_backward == r.z_forward
        ? r.p_forward
        : std::clamp(cumulative_sums_p_value(r.z_backward, n), 0.0, 1.0);
    return r;
}

} // namespace otf::nist
