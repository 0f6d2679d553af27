#include "nist/special_functions.hpp"
#include "nist/tests.hpp"

#include <cmath>
#include <stdexcept>

namespace otf::nist {

std::vector<std::uint64_t> cyclic_pattern_counts(const bit_sequence& seq,
                                                 unsigned m)
{
    if (m == 0 || m > 24) {
        throw std::invalid_argument("cyclic_pattern_counts: m in [1, 24]");
    }
    if (seq.size() < m) {
        throw std::invalid_argument(
            "cyclic_pattern_counts: sequence shorter than pattern");
    }
    std::vector<std::uint64_t> counts(std::size_t{1} << m, 0);
    const std::uint32_t mask = (1u << m) - 1u;
    // Prime the window with the first m-1 bits, then slide once per start
    // position: over the straight part, the window's last bit runs from
    // m-1 to n-1; the m-1 starts past n-m wrap around onto bits 0..m-2
    // (cyclic extension).
    std::uint32_t window = 0;
    for (unsigned j = 0; j + 1 < m; ++j) {
        window = ((window << 1) | (seq[j] ? 1u : 0u)) & mask;
    }
    const std::size_t n = seq.size();
    for (std::size_t last = m - 1; last < n; ++last) {
        window = ((window << 1) | (seq[last] ? 1u : 0u)) & mask;
        ++counts[window];
    }
    for (unsigned last = 0; last + 1 < m; ++last) {
        window = ((window << 1) | (seq[last] ? 1u : 0u)) & mask;
        ++counts[window];
    }
    return counts;
}

std::vector<std::uint64_t> cyclic_marginal_counts(
    const std::vector<std::uint64_t>& counts)
{
    if (counts.size() < 2 || (counts.size() & (counts.size() - 1)) != 0) {
        throw std::invalid_argument(
            "cyclic_marginal_counts: need 2^m counts, m >= 1");
    }
    std::vector<std::uint64_t> marginal(counts.size() / 2);
    for (std::size_t p = 0; p < marginal.size(); ++p) {
        marginal[p] = counts[2 * p] + counts[2 * p + 1];
    }
    return marginal;
}

namespace {

double psi_squared(const std::vector<std::uint64_t>& counts, std::size_t n)
{
    // psi^2_m = (2^m / n) * sum nu_i^2  -  n
    double sum_sq = 0.0;
    for (const std::uint64_t c : counts) {
        sum_sq += static_cast<double>(c) * static_cast<double>(c);
    }
    const double blocks = static_cast<double>(counts.size());
    return blocks / static_cast<double>(n) * sum_sq - static_cast<double>(n);
}

} // namespace

serial_result serial_test(const bit_sequence& seq, unsigned m)
{
    if (m < 2) {
        throw std::invalid_argument("serial_test: m must be >= 2");
    }
    serial_result r;
    r.m = m;
    // One count pass at m; the shorter counts are its marginals.
    r.nu_m = cyclic_pattern_counts(seq, m);
    r.nu_m1 = cyclic_marginal_counts(r.nu_m);
    r.nu_m2 = cyclic_marginal_counts(r.nu_m1);
    const std::size_t n = seq.size();
    // The "0-bit pattern" appears exactly n times; psi^2_0 is zero by
    // definition (SP 800-22 section 2.11).
    r.psi2_m2 = m == 2 ? 0.0 : psi_squared(r.nu_m2, n);
    r.psi2_m = psi_squared(r.nu_m, n);
    r.psi2_m1 = psi_squared(r.nu_m1, n);
    r.del1 = r.psi2_m - r.psi2_m1;
    r.del2 = r.psi2_m - 2.0 * r.psi2_m1 + r.psi2_m2;
    const double dof1 = std::ldexp(1.0, static_cast<int>(m) - 1); // 2^{m-1}
    const double dof2 = std::ldexp(1.0, static_cast<int>(m) - 2); // 2^{m-2}
    r.p_value1 = igamc(dof1 / 2.0, r.del1 / 2.0);
    r.p_value2 = igamc(dof2 / 2.0, r.del2 / 2.0);
    return r;
}

} // namespace otf::nist
