#include "nist/special_functions.hpp"
#include "nist/tests.hpp"
#include "nist/word_loops.hpp"

#include <cmath>
#include <stdexcept>

namespace otf::nist {

runs_result runs_test(const bit_sequence& seq)
{
    if (seq.size() < 2) {
        throw std::invalid_argument("runs_test: need at least two bits");
    }
    const double n = static_cast<double>(seq.size());
    runs_result r;
    r.pi = static_cast<double>(seq.count_ones()) / n;

    // SP 800-22 prerequisite: the frequency test must not already fail
    // catastrophically, |pi - 1/2| < tau = 2 / sqrt(n).
    const double tau = 2.0 / std::sqrt(n);
    r.applicable = std::fabs(r.pi - 0.5) < tau;

    r.v_n = 1 + transitions(seq);

    if (!r.applicable) {
        r.p_value = 0.0;
        return r;
    }
    const double expected = 2.0 * n * r.pi * (1.0 - r.pi);
    const double denom = 2.0 * std::sqrt(2.0 * n) * r.pi * (1.0 - r.pi);
    r.p_value = erfc(std::fabs(static_cast<double>(r.v_n) - expected) / denom);
    return r;
}

} // namespace otf::nist
