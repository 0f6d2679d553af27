// SP 800-90B health-test parameterization.
//
// Cutoff computation for the two continuous health tests (offline, like
// every precomputed constant in the platform): the repetition-count cutoff
// from the entropy claim, and the adaptive-proportion cutoff as an exact
// binomial quantile at the standard's 2^-20 false-alarm rate.
#pragma once

#include <cstdint>

namespace otf::core {

/// \brief Repetition Count Test cutoff: C = 1 + ceil(a / H).
/// \param entropy_per_sample claimed entropy H per sample, in bits
/// \param alpha_exponent     false-alarm rate 2^-a (the standard uses 20)
/// \throws std::invalid_argument unless H is in (0, 1] and a is finite
/// and positive, or when C does not fit in `unsigned`
unsigned rct_cutoff(double entropy_per_sample, double alpha_exponent = 20.0);

/// \brief Adaptive Proportion Test cutoff: the smallest c such that
/// P[Binomial(window, p) >= c] <= 2^-alpha_exponent, with p = 2^-H the
/// most-likely-value probability under the entropy claim.
/// \param window             APT window length in samples (a power of two)
/// \param entropy_per_sample claimed entropy H per sample, in bits
/// \param alpha_exponent     false-alarm rate 2^-a
/// \throws std::invalid_argument unless window >= 2, H is in (0, 1] and
/// a is finite and positive
unsigned apt_cutoff(unsigned window, double entropy_per_sample = 1.0,
                    double alpha_exponent = 20.0);

/// \brief Exact binomial survival P[Binomial(n, p) >= k] (log-space
/// summation; exposed for the health-test property tests).
double binomial_survival(unsigned n, double p, unsigned k);

} // namespace otf::core
