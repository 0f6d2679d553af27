#include "core/sp80090b.hpp"

#include "nist/special_functions.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

namespace otf::core {

namespace {

/// `value` as %g ("nan", "inf", "1.5") for error messages.
std::string shown(double value)
{
    char text[32];
    std::snprintf(text, sizeof text, "%g", value);
    return text;
}

/// Both cutoffs take a binary entropy claim in (0, 1] and a finite,
/// positive false-alarm exponent; NaN fails every comparison, so the
/// checks are written to accept only what is valid.
void check_claim(const char* who, double entropy_per_sample,
                 double alpha_exponent)
{
    if (!(entropy_per_sample > 0.0 && entropy_per_sample <= 1.0)) {
        throw std::invalid_argument(
            std::string(who) + ": binary entropy claim must be in (0, 1], got "
            + shown(entropy_per_sample));
    }
    if (!(std::isfinite(alpha_exponent) && alpha_exponent > 0.0)) {
        throw std::invalid_argument(
            std::string(who)
            + ": false-alarm exponent must be finite and positive, got "
            + shown(alpha_exponent));
    }
}

} // namespace

unsigned rct_cutoff(double entropy_per_sample, double alpha_exponent)
{
    check_claim("rct_cutoff", entropy_per_sample, alpha_exponent);
    const double cutoff = 1.0 + std::ceil(alpha_exponent / entropy_per_sample);
    if (cutoff > std::numeric_limits<unsigned>::max()) {
        throw std::invalid_argument(
            "rct_cutoff: cutoff 1 + ceil(a / H) does not fit in unsigned");
    }
    return static_cast<unsigned>(cutoff);
}

double binomial_survival(unsigned n, double p, unsigned k)
{
    if (!(p > 0.0 && p < 1.0)) {
        throw std::invalid_argument("binomial_survival: p in (0, 1)");
    }
    if (k == 0) {
        return 1.0;
    }
    if (k > n) {
        return 0.0;
    }
    // Sum pmf(i) for i = k..n in log space: log pmf(i) =
    // lchoose(n, i) + i log p + (n - i) log(1 - p).
    double total = 0.0;
    for (unsigned i = k; i <= n; ++i) {
        const double log_pmf = nist::log_gamma(n + 1.0) - nist::log_gamma(i + 1.0)
            - nist::log_gamma(static_cast<double>(n) - i + 1.0)
            + i * std::log(p)
            + (static_cast<double>(n) - i) * std::log1p(-p);
        total += std::exp(log_pmf);
        // pmf decays geometrically past the mode; stop when negligible.
        if (log_pmf < -60.0 && i > static_cast<unsigned>(p * n) + 1) {
            break;
        }
    }
    return total;
}

unsigned apt_cutoff(unsigned window, double entropy_per_sample,
                    double alpha_exponent)
{
    if (window < 2) {
        throw std::invalid_argument("apt_cutoff: window too small");
    }
    check_claim("apt_cutoff", entropy_per_sample, alpha_exponent);
    const double p = std::pow(2.0, -entropy_per_sample);
    const double alpha = std::pow(2.0, -alpha_exponent);
    // Binary search the smallest c with survival(c) <= alpha.
    unsigned lo = 1;
    unsigned hi = window;
    while (lo < hi) {
        const unsigned mid = lo + (hi - lo) / 2;
        if (binomial_survival(window, p, mid) <= alpha) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    return lo;
}

} // namespace otf::core
