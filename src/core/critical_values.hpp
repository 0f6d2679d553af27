// Precomputed critical values for the software half of each test.
//
// The paper avoids P-value computation on the embedded platform entirely:
// "We use a simple approach of computing the inverse functions of the
// critical value and storing the precomputed constants, thereby skipping
// the most computationally intensive step."  This module is that offline
// computation.  For each enabled test it inverts the reference statistic at
// the chosen level of significance (using otf_nist's erfc_inv / igamc_inv /
// exact distributions) and scales the result into an integer the 16-bit
// software can compare against with plain ALU instructions.
//
// Changing alpha only changes these constants -- the hardware block is
// untouched, which is exactly the flexibility argument of Section III-A.
#pragma once

#include "hw/config.hpp"

#include <cstdint>
#include <vector>

namespace otf::core {

/// Fixed-point scale used for the 1/pi chi-squared weights (Q12).
inline constexpr unsigned weight_fraction_bits = 12;

/// One N_ones interval of the runs test with its stored run-count bounds
/// (the paper: "critical values for the N_runs are stored in the program
/// memory as constants and they depend on the N_ones").
struct runs_interval {
    std::int64_t ones_lo; ///< inclusive
    std::int64_t ones_hi; ///< inclusive
    std::int64_t runs_lo; ///< inclusive acceptance bound
    std::int64_t runs_hi; ///< inclusive acceptance bound

    friend bool operator==(const runs_interval&,
                           const runs_interval&) = default;
};

struct critical_values {
    double alpha = 0.01;
    /// The design point the bounds were inverted for, reduced to the
    /// fields they depend on (inverted_design()).  core::software_runner
    /// refuses bounds whose design is not its own.
    hw::block_config design;

    // -- test 1: frequency -------------------------------------------------
    /// Accept while |S_final| <= this (S = 2 N_ones - n).
    std::int64_t t1_max_deviation = 0;

    // -- test 2: block frequency -------------------------------------------
    /// Accept while sum (2 eps_i - M)^2 <= this (the integer statistic is
    /// M * chi^2).
    std::int64_t t2_sum_bound = 0;

    // -- test 3: runs -------------------------------------------------------
    /// Frequency prerequisite: reject outright if |S_final| >= this
    /// (tau = 2 / sqrt(n) scaled to the walk units: 4 sqrt(n)).
    std::int64_t t3_prereq_deviation = 0;
    std::vector<runs_interval> t3_intervals;

    // -- test 4: longest run ------------------------------------------------
    /// Q12 weights round(2^12 / pi_i), one per category.
    std::vector<std::int64_t> t4_weights_q;
    /// Accept while sum nu_i^2 w_i <= this (= 2^12 N (chi2_crit + N)).
    std::int64_t t4_sum_bound = 0;

    // -- test 7: non-overlapping template ------------------------------------
    /// Accept while sum (2^m W_i - (M - m + 1))^2 <= this
    /// (= 2^{2m} sigma^2 chi2_crit).
    std::int64_t t7_sum_bound = 0;

    // -- test 8: overlapping template ----------------------------------------
    std::vector<std::int64_t> t8_weights_q;
    std::int64_t t8_sum_bound = 0;

    // -- test 11: serial ------------------------------------------------------
    /// Accept while 2^m sum nu_m^2 - 2^{m-1} sum nu_{m-1}^2 <= this
    /// (= n * chi2_crit(2^{m-1} dof) + offset terms folded in).
    std::int64_t t11_del1_bound = 0;
    /// Same for the second difference (2^{m-2} dof).
    std::int64_t t11_del2_bound = 0;

    // -- test 12: approximate entropy -----------------------------------------
    /// Accept while ApEn_q16 >= this (ApEn below the bound means the
    /// sequence is too regular; Q16 scale matches the PWL output).
    std::int64_t t12_apen_min_q16 = 0;

    // -- test 13: cumulative sums ----------------------------------------------
    /// Accept while z <= this (applies to both modes).
    std::int64_t t13_z_bound = 0;

    friend bool operator==(const critical_values&,
                           const critical_values&) = default;
};

/// \brief The fields of `cfg` its critical values depend on: the
/// sequence length, the enabled tests and their parameters.  The label,
/// the readout options (marginal transfer, double buffering) and the
/// parameters of disabled tests keep their defaults, so designs that
/// differ only there share one set of bounds.
hw::block_config inverted_design(const hw::block_config& cfg);

/// \brief Refuse bounds inverted for another design point: the software
/// pass would compare `cfg`'s counters against another design's constants.
/// \throws std::invalid_argument unless cv.design == inverted_design(cfg),
/// naming `cfg` and each field in which the bounds' design differs
void require_bounds_for(const hw::block_config& cfg,
                        const critical_values& cv);

/// \brief Invert all statistics for the tests enabled in `cfg` at level
/// `alpha` (the offline precomputation of Section III-A).
/// \param cfg            the design point whose tests need constants
/// \param alpha          per-test level of significance
/// \param runs_intervals N_ones quantization of the runs test's
///                       stored-constant table
/// \return integer-scaled acceptance bounds for the embedded software
critical_values compute_critical_values(const hw::block_config& cfg,
                                        double alpha,
                                        unsigned runs_intervals = 32);

} // namespace otf::core
