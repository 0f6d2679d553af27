#include "nist/distributions.hpp"

#include "nist/published_cache.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

namespace otf::nist {

double prob_longest_run_at_most(unsigned length, unsigned max_run)
{
    // q(n) = P[no run of ones longer than k in n fair bits].  Condition on
    // the first zero: j ones (j <= k) then a zero then a valid suffix; the
    // all-ones string contributes only while n <= k.
    const unsigned k = max_run;
    std::vector<double> q(length + 1, 0.0);
    q[0] = 1.0;
    // Precomputed 2^-(j+1) weights for the at most k+1 prefix shapes.
    std::vector<double> w(k + 1);
    for (unsigned j = 0; j <= k; ++j) {
        w[j] = std::ldexp(1.0, -static_cast<int>(j + 1));
    }
    for (unsigned n = 1; n <= length; ++n) {
        double total = 0.0;
        const unsigned j_max = (k < n - 1) ? k : n - 1;
        for (unsigned j = 0; j <= j_max; ++j) {
            total += w[j] * q[n - j - 1];
        }
        if (n <= k) {
            total += std::ldexp(1.0, -static_cast<int>(n));
        }
        q[n] = total;
    }
    return q[length];
}

std::vector<double> longest_run_category_probs(unsigned block_length,
                                               unsigned v_lo, unsigned v_hi)
{
    if (v_hi <= v_lo) {
        throw std::invalid_argument(
            "longest_run_category_probs: need v_hi > v_lo");
    }
    std::vector<double> probs;
    probs.reserve(v_hi - v_lo + 1);
    double below = prob_longest_run_at_most(block_length, v_lo);
    probs.push_back(below);
    for (unsigned v = v_lo + 1; v < v_hi; ++v) {
        const double upto = prob_longest_run_at_most(block_length, v);
        probs.push_back(upto - below);
        below = upto;
    }
    probs.push_back(1.0 - below);
    return probs;
}

void cached_longest_run_category_probs(unsigned block_length, unsigned v_lo,
                                       unsigned v_hi,
                                       std::vector<double>& out)
{
    static published_cache<std::array<unsigned, 3>, std::vector<double>, 64>
        cache;
    std::optional<std::vector<double>> uncached;
    const std::vector<double>& probs =
        cache.get({block_length, v_lo, v_hi}, uncached, [&] {
            return longest_run_category_probs(block_length, v_lo, v_hi);
        });
    out.assign(probs.begin(), probs.end());
}

longest_run_categories recommended_longest_run_categories(
    unsigned block_length)
{
    // SP 800-22 table 2-4 bounds for M = 8 and M = 128; blocks of 10^4-class
    // length (the paper's power-of-two variant uses 8192) take {10, 16}.
    if (block_length <= 8) {
        return {1, 4};
    }
    if (block_length <= 128) {
        return {4, 9};
    }
    return {10, 16};
}

namespace {

// pattern[i] for an MSB-first template value.
inline bool template_bit(std::uint32_t templ, unsigned m, unsigned i)
{
    return ((templ >> (m - 1 - i)) & 1u) != 0;
}

// KMP automaton: next[s][b] = longest prefix of the pattern that is a suffix
// of (matched-prefix-of-length-s followed by bit b), for s in [0, m-1].
// A transition that would reach length m is a match; matching resumes from
// the failure state of m (overlapping occurrences).
struct kmp_automaton {
    std::vector<std::array<unsigned, 2>> next; // [state][bit] -> state
    std::vector<std::array<bool, 2>> match;   // [state][bit] -> emits match?
};

kmp_automaton build_kmp(std::uint32_t templ, unsigned m)
{
    std::vector<unsigned> fail(m + 1, 0);
    for (unsigned i = 1; i < m; ++i) {
        unsigned s = fail[i];
        const bool b = template_bit(templ, m, i);
        while (s > 0 && template_bit(templ, m, s) != b) {
            s = fail[s];
        }
        fail[i + 1] = (template_bit(templ, m, s) == b) ? s + 1 : 0;
    }

    kmp_automaton a;
    a.next.assign(m, {0u, 0u});
    a.match.assign(m, {false, false});
    for (unsigned s = 0; s < m; ++s) {
        for (unsigned bit = 0; bit < 2; ++bit) {
            const bool b = (bit == 1);
            unsigned t = s;
            while (t > 0 && template_bit(templ, m, t) != b) {
                t = fail[t];
            }
            unsigned ns = (template_bit(templ, m, t) == b) ? t + 1 : 0;
            if (ns == m) {
                a.match[s][bit] = true;
                ns = fail[m]; // resume from the longest border: overlapping
            }
            a.next[s][bit] = ns;
        }
    }
    return a;
}

} // namespace

std::vector<double> overlapping_template_category_probs(std::uint32_t templ,
                                                        unsigned m,
                                                        unsigned block_length,
                                                        unsigned max_count)
{
    if (m == 0 || m > 31) {
        throw std::invalid_argument(
            "overlapping_template_category_probs: m must be in [1, 31]");
    }
    const kmp_automaton a = build_kmp(templ, m);
    const unsigned counts = max_count + 1; // 0..max_count-1 exact, then >=
    // dp[state][count] = probability mass.
    std::vector<std::vector<double>> dp(m, std::vector<double>(counts, 0.0));
    std::vector<std::vector<double>> nx(m, std::vector<double>(counts, 0.0));
    dp[0][0] = 1.0;
    for (unsigned step = 0; step < block_length; ++step) {
        for (auto& row : nx) {
            row.assign(counts, 0.0);
        }
        for (unsigned s = 0; s < m; ++s) {
            for (unsigned c = 0; c < counts; ++c) {
                const double p = dp[s][c];
                if (p == 0.0) {
                    continue;
                }
                for (unsigned bit = 0; bit < 2; ++bit) {
                    const unsigned ns = a.next[s][bit];
                    unsigned nc = c;
                    if (a.match[s][bit] && nc < max_count) {
                        ++nc;
                    }
                    nx[ns][nc] += 0.5 * p;
                }
            }
        }
        dp.swap(nx);
    }
    std::vector<double> probs(counts, 0.0);
    for (unsigned s = 0; s < m; ++s) {
        for (unsigned c = 0; c < counts; ++c) {
            probs[c] += dp[s][c];
        }
    }
    return probs;
}

mean_variance non_overlapping_template_moments(unsigned m,
                                               unsigned block_length)
{
    const double M = block_length;
    const double two_m = std::ldexp(1.0, static_cast<int>(m));
    const double mean = (M - m + 1) / two_m;
    const double variance =
        M * (1.0 / two_m - (2.0 * m - 1.0) / (two_m * two_m));
    return {mean, variance};
}

bool is_aperiodic_template(std::uint32_t templ, unsigned m)
{
    // Aperiodic = no proper border: for every shift j in [1, m-1], the
    // length-(m-j) prefix differs from the length-(m-j) suffix.
    const std::uint32_t mask = (m == 32) ? ~0u : ((1u << m) - 1u);
    const std::uint32_t value = templ & mask;
    for (unsigned j = 1; j < m; ++j) {
        const std::uint32_t sub_mask = (1u << (m - j)) - 1u;
        const std::uint32_t prefix = (value >> j) & sub_mask;
        const std::uint32_t suffix = value & sub_mask;
        if (prefix == suffix) {
            return false;
        }
    }
    return true;
}

std::vector<std::uint32_t> aperiodic_templates(unsigned m)
{
    std::vector<std::uint32_t> result;
    const std::uint32_t limit = 1u << m;
    for (std::uint32_t t = 0; t < limit; ++t) {
        if (is_aperiodic_template(t, m)) {
            result.push_back(t);
        }
    }
    return result;
}

} // namespace otf::nist
