#include "nist/special_functions.hpp"
#include "nist/tests.hpp"
#include "nist/word_loops.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace otf::nist {

std::vector<std::uint64_t> cyclic_pattern_counts(const bit_sequence& seq,
                                                 unsigned m)
{
    std::vector<std::uint64_t> counts;
    cyclic_pattern_counts(seq, m, counts);
    return counts;
}

void cyclic_pattern_counts(const bit_sequence& seq, unsigned m,
                           std::vector<std::uint64_t>& counts)
{
    if (m == 0 || m > 24) {
        throw std::invalid_argument("cyclic_pattern_counts: m in [1, 24]");
    }
    if (seq.size() < m) {
        throw std::invalid_argument(
            "cyclic_pattern_counts: sequence shorter than pattern");
    }
    counts.assign(std::size_t{1} << m, 0);
    add_cyclic_patterns(seq, m, counts.data());
}

std::vector<std::uint64_t> cyclic_marginal_counts(
    const std::vector<std::uint64_t>& counts)
{
    std::vector<std::uint64_t> marginal;
    cyclic_marginal_counts(counts, marginal);
    return marginal;
}

void cyclic_marginal_counts(const std::vector<std::uint64_t>& counts,
                            std::vector<std::uint64_t>& marginal)
{
    if (counts.size() < 2 || (counts.size() & (counts.size() - 1)) != 0) {
        throw std::invalid_argument(
            "cyclic_marginal_counts: need 2^m counts, m >= 1");
    }
    marginal.resize(counts.size() / 2);
    for (std::size_t p = 0; p < marginal.size(); ++p) {
        marginal[p] = counts[2 * p] + counts[2 * p + 1];
    }
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
    // One count pass at m; the shorter counts are its marginals.
    serial_test(cyclic_pattern_counts(seq, m), seq.size(), r);
    return r;
}

void serial_test(const std::vector<std::uint64_t>& counts, std::size_t n,
                 serial_result& r)
{
    const unsigned m = static_cast<unsigned>(std::countr_zero(counts.size()));
    if (m < 2 || counts.size() != std::size_t{1} << m) {
        throw std::invalid_argument("serial_test: need 2^m counts, m >= 2");
    }
    r.m = m;
    r.nu_m.assign(counts.begin(), counts.end());
    cyclic_marginal_counts(r.nu_m, r.nu_m1);
    cyclic_marginal_counts(r.nu_m1, r.nu_m2);
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
}

} // namespace otf::nist
