// Reference implementations of the nine NIST SP 800-22 tests the platform
// supports (Table I of the paper, rows marked "Yes").
//
// These are full-precision, whole-sequence implementations that compute
// P-values exactly as the test suite specifies.  In the platform they play
// three roles:
//  1. ground truth for verifying the bit-serial hardware engines and the
//     integer software routines (the equivalence property of Table II),
//  2. the generator of precomputed critical values for the embedded software
//     (inverse statistics, evaluated once offline),
//  3. the baseline "offline software battery" that on-the-fly testing is an
//     alternative to.
//
// Conventions: P-values are two-sided/upper-tail exactly as in SP 800-22; a
// test passes at level alpha iff P >= alpha.
#pragma once

#include "base/bits.hpp"

#include <cstdint>
#include <vector>

namespace otf::nist {

/// Shared pass/fail convention for all tests.
inline bool passes(double p_value, double alpha)
{
    return p_value >= alpha;
}

// ---------------------------------------------------------------- test 1 --
/// 2.1 Frequency (monobit) test.
struct frequency_result {
    std::int64_t s_n;   ///< sum of +/-1 steps: 2 * N_ones - n
    double s_obs;       ///< |s_n| / sqrt(n)
    double p_value;
};
frequency_result frequency_test(const bit_sequence& seq);

// ---------------------------------------------------------------- test 2 --
/// 2.2 Frequency test within a block.
struct block_frequency_result {
    unsigned block_count;              ///< N = floor(n / M)
    std::vector<std::uint64_t> ones;   ///< ones per block, epsilon_i
    double chi_squared;
    double p_value;
};
block_frequency_result block_frequency_test(const bit_sequence& seq,
                                            unsigned block_length);

// ---------------------------------------------------------------- test 3 --
/// 2.3 Runs test.
struct runs_result {
    std::uint64_t v_n;  ///< total number of runs
    double pi;          ///< proportion of ones
    bool applicable;    ///< frequency precondition |pi - 1/2| < 2/sqrt(n)
    double p_value;     ///< 0 when not applicable (sequence already failed)
};
runs_result runs_test(const bit_sequence& seq);

// ---------------------------------------------------------------- test 4 --
/// 2.4 Longest run of ones in a block.
struct longest_run_result {
    unsigned block_length;
    unsigned v_lo;                      ///< first category: runs <= v_lo
    unsigned v_hi;                      ///< last category: runs >= v_hi
    std::vector<std::uint64_t> nu;      ///< per-category block counts
    std::vector<double> pi;             ///< category probabilities
    double chi_squared;
    double p_value;
};
/// Category bounds default to the NIST recommendation for `block_length`;
/// probabilities are recomputed exactly for the given length.
longest_run_result longest_run_test(const bit_sequence& seq,
                                    unsigned block_length);
longest_run_result longest_run_test(const bit_sequence& seq,
                                    unsigned block_length, unsigned v_lo,
                                    unsigned v_hi);

// ---------------------------------------------------------------- test 7 --
/// 2.7 Non-overlapping template matching test.
struct non_overlapping_template_result {
    std::uint32_t templ;               ///< MSB-first template value
    unsigned template_length;
    unsigned block_length;
    std::vector<std::uint64_t> w;      ///< matches per block, W_i
    double mean;                       ///< theoretical mean mu
    double variance;                   ///< theoretical variance sigma^2
    double chi_squared;
    double p_value;
};
non_overlapping_template_result non_overlapping_template_test(
    const bit_sequence& seq, std::uint32_t templ, unsigned template_length,
    unsigned block_count);

// ---------------------------------------------------------------- test 8 --
/// 2.8 Overlapping template matching test.
struct overlapping_template_result {
    std::uint32_t templ;
    unsigned template_length;
    unsigned block_length;
    unsigned max_count;                ///< K: last category is >= K matches
    std::vector<std::uint64_t> nu;     ///< blocks per category, size K+1
    std::vector<double> pi;            ///< exact category probabilities
    double chi_squared;
    double p_value;
};
/// Template defaults to all-ones (the NIST choice); category probabilities
/// are computed exactly for the given block length via automaton DP.
overlapping_template_result overlapping_template_test(const bit_sequence& seq,
                                                      unsigned template_length,
                                                      unsigned block_length,
                                                      unsigned max_count = 5);
overlapping_template_result overlapping_template_test(const bit_sequence& seq,
                                                      std::uint32_t templ,
                                                      unsigned template_length,
                                                      unsigned block_length,
                                                      unsigned max_count);

// --------------------------------------------------------------- test 11 --
/// 2.11 Serial test.
struct serial_result {
    unsigned m;                        ///< top pattern length
    std::vector<std::uint64_t> nu_m;   ///< cyclic m-bit pattern counts
    std::vector<std::uint64_t> nu_m1;  ///< (m-1)-bit pattern counts
    std::vector<std::uint64_t> nu_m2;  ///< (m-2)-bit pattern counts
    double psi2_m;                     ///< psi-squared statistics
    double psi2_m1;
    double psi2_m2;
    double del1;                       ///< nabla   psi^2_m
    double del2;                       ///< nabla^2 psi^2_m
    double p_value1;
    double p_value2;
};
serial_result serial_test(const bit_sequence& seq, unsigned m);

// --------------------------------------------------------------- test 12 --
/// 2.12 Approximate entropy test.
struct approximate_entropy_result {
    unsigned m;
    std::vector<std::uint64_t> nu_m;   ///< cyclic m-bit pattern counts
    std::vector<std::uint64_t> nu_m1;  ///< (m+1)-bit pattern counts
    double phi_m;
    double phi_m1;
    double apen;                       ///< phi_m - phi_m1
    double chi_squared;                ///< 2n (ln 2 - apen)
    double p_value;
};
approximate_entropy_result approximate_entropy_test(const bit_sequence& seq,
                                                    unsigned m);

// --------------------------------------------------------------- test 13 --
/// 2.13 Cumulative sums test, both modes from a single walk.
struct cumulative_sums_result {
    std::int64_t s_max;     ///< maximum of the partial-sum walk
    std::int64_t s_min;     ///< minimum of the partial-sum walk
    std::int64_t s_final;   ///< final value of the walk
    std::int64_t z_forward; ///< max |S_k| (mode 0)
    std::int64_t z_backward;///< max |S_n - S_{n-k}| (mode 1)
    double p_forward;
    double p_backward;
};
cumulative_sums_result cumulative_sums_test(const bit_sequence& seq);

/// The cusum P-value as a standalone function of (z, n): used both by the
/// test itself (which clamps it to [0, 1]) and by the critical-value
/// precomputation (which inverts the unclamped series).
double cumulative_sums_p_value(std::int64_t z, std::size_t n);

// ---------------------------------------------------------------- helpers --
/// Counts of all overlapping m-bit patterns with cyclic extension (the
/// convention of the serial and approximate-entropy tests).  Index is the
/// MSB-first pattern value; result has 2^m entries summing to n.
std::vector<std::uint64_t> cyclic_pattern_counts(const bit_sequence& seq,
                                                 unsigned m);

/// The (m-1)-bit counts from the 2^m cyclic m-bit counts, by summing
/// sibling patterns: nu_{m-1}[p] = nu_m[2p] + nu_m[2p+1].  Exact for cyclic
/// counts, so serial and approximate entropy count once at their longest
/// pattern.  The marginal of the 1-bit counts is {n}.
/// \throws std::invalid_argument unless counts.size() is 2^m, m >= 1
std::vector<std::uint64_t> cyclic_marginal_counts(
    const std::vector<std::uint64_t>& counts);

} // namespace otf::nist
