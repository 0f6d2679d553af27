// The six NIST SP 800-22 tests the platform does NOT implement in
// hardware (Table I rows marked "No"), provided as full-precision
// reference implementations -- the paper's future-work item of covering
// the remaining suite, and the quantitative backing for Table I's
// exclusion reasons (each needs whole-sequence buffering or heavy
// software: GF(2) elimination, an n-point spectral transform, a
// last-occurrence table, Berlekamp-Massey, or cycle-structure
// bookkeeping).
//
// Together with tests.hpp this completes the 15-test SP 800-22 battery
// (see battery.hpp for the one-call runner).
#pragma once

#include "base/bits.hpp"

#include <cstdint>
#include <vector>

namespace otf::nist {

// ---------------------------------------------------------------- test 5 --
/// 2.5 Binary matrix rank test (M x Q matrices, default 32 x 32).
struct matrix_rank_result {
    unsigned rows;
    unsigned cols;
    std::uint64_t matrices;       ///< N = floor(n / (rows * cols))
    std::uint64_t full_rank;      ///< matrices with rank = M
    std::uint64_t one_less;       ///< matrices with rank = M - 1
    std::uint64_t remaining;      ///< everything below
    double chi_squared;
    double p_value;
};
matrix_rank_result matrix_rank_test(const bit_sequence& seq,
                                    unsigned rows = 32, unsigned cols = 32);

// ---------------------------------------------------------------- test 6 --
/// 2.6 Discrete Fourier transform (spectral) test.
struct dft_result {
    double threshold;   ///< T = sqrt(n ln(1/0.05))
    double n0;          ///< expected peaks below T: 0.95 n / 2
    double n1;          ///< observed peaks below T
    double d;
    double p_value;
};
dft_result dft_test(const bit_sequence& seq);

/// Magnitudes of the first floor(n/2) DFT bins of a real input of any
/// length n, through one mixed-radix transform: O(n log n) at the
/// platform's evidence lengths n = 128 * w, O(n p) for a largest prime
/// factor p.
std::vector<double> dft_magnitudes(const std::vector<double>& input);

// ---------------------------------------------------------------- test 9 --
/// 2.9 Maurer's "universal statistical" test.
struct universal_result {
    unsigned block_length;       ///< L
    std::uint64_t init_blocks;   ///< Q
    std::uint64_t test_blocks;   ///< K
    double fn;                   ///< the test statistic
    double expected;             ///< tabulated E[fn] for this L
    double sigma;
    double p_value;
};
/// Parameters default to the NIST choice for the sequence length
/// (L from the length ladder, Q = 10 * 2^L); throws when the sequence is
/// too short for any valid parameterization.
universal_result universal_test(const bit_sequence& seq);
universal_result universal_test(const bit_sequence& seq,
                                unsigned block_length,
                                std::uint64_t init_blocks);

// --------------------------------------------------------------- test 10 --
/// 2.10 Linear complexity test.
struct linear_complexity_result {
    unsigned block_length;            ///< M
    std::uint64_t blocks;             ///< N
    std::vector<std::uint64_t> nu;    ///< 7 T-categories
    double chi_squared;
    double p_value;
};
linear_complexity_result linear_complexity_test(const bit_sequence& seq,
                                                unsigned block_length = 500);

/// Berlekamp-Massey: linear complexity of a bit block (exposed for tests
/// and for the Table I storage/complexity quantification).
unsigned berlekamp_massey(const std::vector<std::uint8_t>& bits);

// ---------------------------------------------------------- tests 14, 15 --
/// Whether the excursion tests apply to a sequence.
struct excursion_gate_result {
    std::uint64_t cycles; ///< J: zero-to-zero cycles of the +-1 walk
    bool applicable;      ///< J >= max(0.005 sqrt(n), 500)
};
/// \brief SP 800-22's applicability rule of tests 14 and 15 (sections
/// 3.14-3.15), in one integer pass: J counts the walk's returns to zero
/// plus one for a final partial walk.  Both tests take their `cycles`
/// and `applicable` from here, and run_battery() asks it before running
/// either test.
excursion_gate_result excursion_gate(const bit_sequence& seq);

// --------------------------------------------------------------- test 14 --
/// 2.14 Random excursions test: one chi-squared per state x in
/// {-4..-1, 1..4}.
struct random_excursions_result {
    std::uint64_t cycles;             ///< J (excursion_gate)
    bool applicable;                  ///< excursion_gate(seq).applicable
    std::vector<int> states;          ///< the 8 states in order
    std::vector<double> chi_squared;  ///< per state
    std::vector<double> p_values;     ///< per state
};
random_excursions_result random_excursions_test(const bit_sequence& seq);

// --------------------------------------------------------------- test 15 --
/// 2.15 Random excursions variant test: one P-value per state x in
/// {-9..-1, 1..9}.
struct random_excursions_variant_result {
    std::uint64_t cycles;             ///< J (excursion_gate)
    bool applicable;                  ///< excursion_gate(seq).applicable
    std::vector<int> states;          ///< the 18 states in order
    std::vector<std::uint64_t> visits;///< total visits per state
    std::vector<double> p_values;
};
random_excursions_variant_result random_excursions_variant_test(
    const bit_sequence& seq);

/// Theoretical probability of k visits to state x within one cycle
/// (k capped at 5 as in the NIST tables); used by test 14.
double excursion_visit_probability(int state, unsigned k);

} // namespace otf::nist
