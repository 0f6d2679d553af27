#include "nist/distributions.hpp"
#include "nist/special_functions.hpp"
#include "nist/tests.hpp"
#include "nist/word_loops.hpp"

#include <algorithm>
#include <stdexcept>

namespace otf::nist {

longest_run_result longest_run_test(const bit_sequence& seq,
                                    unsigned block_length)
{
    const longest_run_categories cats =
        recommended_longest_run_categories(block_length);
    return longest_run_test(seq, block_length, cats.v_lo, cats.v_hi);
}

longest_run_result longest_run_test(const bit_sequence& seq,
                                    unsigned block_length, unsigned v_lo,
                                    unsigned v_hi)
{
    longest_run_result r;
    longest_run_test(seq, block_length, v_lo, v_hi, r);
    return r;
}

void longest_run_test(const bit_sequence& seq, unsigned block_length,
                      unsigned v_lo, unsigned v_hi, longest_run_result& r)
{
    if (block_length == 0) {
        throw std::invalid_argument("longest_run_test: M must be > 0");
    }
    const std::size_t block_count = seq.size() / block_length;
    if (block_count == 0) {
        throw std::invalid_argument(
            "longest_run_test: sequence shorter than one block");
    }

    r.block_length = block_length;
    r.v_lo = v_lo;
    r.v_hi = v_hi;
    cached_longest_run_category_probs(block_length, v_lo, v_hi, r.pi);
    r.nu.assign(r.pi.size(), 0);

    for (std::size_t b = 0; b < block_count; ++b) {
        // Categories: <= v_lo, v_lo + 1, ..., >= v_hi.
        const unsigned run =
            longest_ones_run(seq, b * block_length, block_length);
        ++r.nu[std::clamp(run, v_lo, v_hi) - v_lo];
    }

    const double N = static_cast<double>(block_count);
    double chi = 0.0;
    for (std::size_t c = 0; c < r.nu.size(); ++c) {
        const double expected = N * r.pi[c];
        const double dev = static_cast<double>(r.nu[c]) - expected;
        chi += dev * dev / expected;
    }
    r.chi_squared = chi;
    const double dof = static_cast<double>(r.nu.size()) - 1.0;
    r.p_value = igamc(dof / 2.0, chi / 2.0);
}

} // namespace otf::nist
