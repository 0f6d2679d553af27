// Exact combinatorial distributions used to parameterize the tests.
//
// The paper's "block detection" trick requires every block length to be a
// power of two, which differs from the block lengths NIST tabulated category
// probabilities for (e.g. M = 10^4 for the longest-run test, M = 1032 for
// the overlapping-template test).  Rather than reusing mismatched constants,
// this module recomputes the exact category probabilities for arbitrary
// block lengths:
//
//  * longest run of ones   -- linear recurrence over run-limited strings,
//  * overlapping template  -- dynamic programming over the KMP automaton of
//                             the template, counting matches exactly,
//  * non-overlapping template -- closed-form mean/variance from SP 800-22.
#pragma once

#include "base/bits.hpp"

#include <cstdint>
#include <vector>

namespace otf::nist {

/// P[longest run of ones in `length` fair random bits is <= `max_run`].
double prob_longest_run_at_most(unsigned length, unsigned max_run);

/// Category probabilities for the longest-run-of-ones test.
///
/// Categories follow the NIST convention: {<= v_lo, v_lo+1, ..., v_hi-1,
/// >= v_hi}, giving (v_hi - v_lo + 1) classes.  Computed exactly for any
/// block length, so power-of-two blocks get correct chi-squared weights.
std::vector<double> longest_run_category_probs(unsigned block_length,
                                               unsigned v_lo, unsigned v_hi);

/// The same probabilities into `out`, computed once per (block_length,
/// v_lo, v_hi) and cached for the process (thread-safe; the first 64 keys
/// stay cached, later ones are recomputed).  Bit-identical to
/// longest_run_category_probs().
void cached_longest_run_category_probs(unsigned block_length, unsigned v_lo,
                                       unsigned v_hi,
                                       std::vector<double>& out);

/// NIST-recommended category bounds for a given longest-run block length:
/// M = 8 -> {1, 4}, M = 128 -> {4, 9}, larger blocks -> {10, 16}.
struct longest_run_categories {
    unsigned v_lo;
    unsigned v_hi;
};
longest_run_categories recommended_longest_run_categories(
    unsigned block_length);

/// Probability that an M-bit block of fair random bits contains exactly
/// {0, 1, ..., max_count-1, >= max_count} overlapping occurrences of
/// `templ` (MSB-first pattern of `m` bits).  Returns max_count + 1 values
/// summing to 1.  Exact, via DP over the template's KMP automaton.
std::vector<double> overlapping_template_category_probs(std::uint32_t templ,
                                                        unsigned m,
                                                        unsigned block_length,
                                                        unsigned max_count);

/// Mean and variance of the non-overlapping occurrence count of an
/// aperiodic m-bit template in an M-bit block (SP 800-22 section 2.7).
struct mean_variance {
    double mean;
    double variance;
};
mean_variance non_overlapping_template_moments(unsigned m,
                                               unsigned block_length);

/// True if the m-bit template (MSB-first) is aperiodic: no proper prefix of
/// it is also a suffix, the precondition of the non-overlapping test's
/// normal approximation.
bool is_aperiodic_template(std::uint32_t templ, unsigned m);

/// All aperiodic templates of length m, ascending (the NIST template lists).
std::vector<std::uint32_t> aperiodic_templates(unsigned m);

} // namespace otf::nist
