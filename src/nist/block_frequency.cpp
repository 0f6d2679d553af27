#include "nist/special_functions.hpp"
#include "nist/tests.hpp"
#include "nist/word_loops.hpp"

#include <stdexcept>

namespace otf::nist {

block_frequency_result block_frequency_test(const bit_sequence& seq,
                                            unsigned block_length)
{
    block_frequency_result r;
    block_frequency_test(seq, block_length, r);
    return r;
}

void block_frequency_test(const bit_sequence& seq, unsigned block_length,
                          block_frequency_result& r)
{
    if (block_length == 0) {
        throw std::invalid_argument("block_frequency_test: M must be > 0");
    }
    const std::size_t block_count = seq.size() / block_length;
    if (block_count == 0) {
        throw std::invalid_argument(
            "block_frequency_test: sequence shorter than one block");
    }
    r.block_count = static_cast<unsigned>(block_count);
    r.ones.resize(block_count);
    for (std::size_t b = 0; b < block_count; ++b) {
        r.ones[b] = ones_in(seq, b * block_length, block_length);
    }
    // chi^2 = 4 M sum (pi_i - 1/2)^2, with pi_i = ones_i / M.
    double chi = 0.0;
    const double M = block_length;
    for (const std::uint64_t ones : r.ones) {
        const double dev = static_cast<double>(ones) / M - 0.5;
        chi += dev * dev;
    }
    r.chi_squared = 4.0 * M * chi;
    r.p_value = igamc(static_cast<double>(block_count) / 2.0,
                      r.chi_squared / 2.0);
}

} // namespace otf::nist
