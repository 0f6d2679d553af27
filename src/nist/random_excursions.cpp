#include "nist/extended_tests.hpp"
#include "nist/special_functions.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace otf::nist {

double excursion_visit_probability(int state, unsigned k)
{
    const double x = std::abs(state);
    if (x < 1.0) {
        throw std::invalid_argument(
            "excursion_visit_probability: state must be non-zero");
    }
    // SP 800-22 section 3.14: pi_0 = 1 - 1/(2|x|);
    // pi_k = (1/(4x^2)) (1 - 1/(2|x|))^{k-1} for 1 <= k <= 4;
    // pi_5 = (1/(2|x|)) (1 - 1/(2|x|))^4.
    const double q = 1.0 - 1.0 / (2.0 * x);
    if (k == 0) {
        return q;
    }
    if (k <= 4) {
        return std::pow(q, static_cast<double>(k) - 1.0) / (4.0 * x * x);
    }
    return std::pow(q, 4.0) / (2.0 * x);
}

namespace {

// Walk the sequence, cutting it into zero-to-zero cycles, and count the
// visits to every state in [-9, 9] per cycle.  `binned` bins the per-cycle
// counts of the 8 inner states at 5+; `totals` accumulates raw visits for
// the 18 variant states.  The cycles themselves are excursion_gate()'s.
struct excursion_scan {
    // [state index 0..7 for -4..-1,1..4][bin 0..5]
    std::uint64_t binned[8][6] = {};
    // [state index 0..17 for -9..-1,1..9]
    std::uint64_t totals[18] = {};
};

int inner_index(int state)
{
    // -4..-1 -> 0..3, 1..4 -> 4..7
    return state < 0 ? state + 4 : state + 3;
}

int variant_index(int state)
{
    // -9..-1 -> 0..8, 1..9 -> 9..17
    return state < 0 ? state + 9 : state + 8;
}

excursion_scan scan_cycles(const bit_sequence& seq)
{
    excursion_scan scan;
    std::int64_t s = 0;
    std::uint64_t in_cycle[8] = {};
    const auto close_cycle = [&] {
        for (int i = 0; i < 8; ++i) {
            const std::uint64_t k = in_cycle[i] > 5 ? 5 : in_cycle[i];
            ++scan.binned[i][k];
            in_cycle[i] = 0;
        }
    };
    for (std::size_t i = 0; i < seq.size(); ++i) {
        s += seq[i] ? 1 : -1;
        if (s == 0) {
            close_cycle();
            continue;
        }
        if (s >= -4 && s <= 4) {
            ++in_cycle[inner_index(static_cast<int>(s))];
        }
        if (s >= -9 && s <= 9) {
            ++scan.totals[variant_index(static_cast<int>(s))];
        }
    }
    if (s != 0) {
        // The final partial walk closes the last cycle (the NIST
        // convention appends a zero crossing at the end).
        close_cycle();
    }
    return scan;
}

} // namespace

excursion_gate_result excursion_gate(const bit_sequence& seq)
{
    std::int64_t s = 0;
    std::uint64_t returns = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        s += seq[i] ? 1 : -1;
        returns += s == 0 ? 1 : 0;
    }
    excursion_gate_result gate;
    gate.cycles = returns + (s != 0 ? 1 : 0);
    const double min_cycles = std::max(
        0.005 * std::sqrt(static_cast<double>(seq.size())), 500.0);
    gate.applicable = static_cast<double>(gate.cycles) >= min_cycles;
    return gate;
}

random_excursions_result random_excursions_test(const bit_sequence& seq)
{
    if (seq.empty()) {
        throw std::invalid_argument("random_excursions_test: empty input");
    }
    const excursion_gate_result gate = excursion_gate(seq);
    const excursion_scan scan = scan_cycles(seq);

    random_excursions_result r;
    r.cycles = gate.cycles;
    r.applicable = gate.applicable;

    const double j = static_cast<double>(gate.cycles);
    for (const int state : {-4, -3, -2, -1, 1, 2, 3, 4}) {
        r.states.push_back(state);
        double chi = 0.0;
        for (unsigned k = 0; k <= 5; ++k) {
            const double expected =
                j * excursion_visit_probability(state, k);
            const double observed = static_cast<double>(
                scan.binned[inner_index(state)][k]);
            if (expected > 0.0) {
                const double dev = observed - expected;
                chi += dev * dev / expected;
            }
        }
        r.chi_squared.push_back(chi);
        r.p_values.push_back(igamc(2.5, chi / 2.0)); // 5 dof
    }
    return r;
}

random_excursions_variant_result random_excursions_variant_test(
    const bit_sequence& seq)
{
    if (seq.empty()) {
        throw std::invalid_argument(
            "random_excursions_variant_test: empty input");
    }
    const excursion_gate_result gate = excursion_gate(seq);
    const excursion_scan scan = scan_cycles(seq);

    random_excursions_variant_result r;
    r.cycles = gate.cycles;
    r.applicable = gate.applicable;

    const double j = static_cast<double>(gate.cycles);
    for (int state = -9; state <= 9; ++state) {
        if (state == 0) {
            continue;
        }
        r.states.push_back(state);
        const std::uint64_t visits = scan.totals[variant_index(state)];
        r.visits.push_back(visits);
        const double denom =
            std::sqrt(2.0 * j * (4.0 * std::abs(state) - 2.0));
        r.p_values.push_back(
            erfc(std::fabs(static_cast<double>(visits) - j) / denom));
    }
    return r;
}

} // namespace otf::nist
