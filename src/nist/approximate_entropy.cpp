#include "nist/special_functions.hpp"
#include "nist/tests.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace otf::nist {

namespace {

// phi_m = sum_i (nu_i / n) ln(nu_i / n), with 0 ln 0 = 0.
double phi(const std::vector<std::uint64_t>& counts, std::size_t n)
{
    double total = 0.0;
    for (const std::uint64_t c : counts) {
        if (c == 0) {
            continue;
        }
        const double x = static_cast<double>(c) / static_cast<double>(n);
        total += x * std::log(x);
    }
    return total;
}

} // namespace

approximate_entropy_result approximate_entropy_test(const bit_sequence& seq,
                                                    unsigned m)
{
    if (m == 0) {
        throw std::invalid_argument("approximate_entropy_test: m must be > 0");
    }
    approximate_entropy_result r;
    r.m = m;
    // One count pass at m+1; the m-bit counts are its marginals.
    r.nu_m1 = cyclic_pattern_counts(seq, m + 1);
    r.nu_m = cyclic_marginal_counts(r.nu_m1);
    const std::size_t n = seq.size();
    r.phi_m = phi(r.nu_m, n);
    r.phi_m1 = phi(r.nu_m1, n);
    r.apen = r.phi_m - r.phi_m1;
    // ApEn <= ln 2 holds exactly, but on a perfectly balanced sequence
    // (every (m+1)-bit pattern equally often, e.g. a de Bruijn period) the
    // rounded difference can land a few ulps below 0, which igamc rejects.
    r.chi_squared = std::max(
        0.0, 2.0 * static_cast<double>(n) * (std::log(2.0) - r.apen));
    const double dof = std::ldexp(1.0, static_cast<int>(m)); // 2^m
    r.p_value = igamc(dof / 2.0, r.chi_squared / 2.0);
    return r;
}

} // namespace otf::nist
