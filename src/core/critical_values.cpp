#include "core/critical_values.hpp"

#include "hw/serial_hw.hpp"
#include "nist/distributions.hpp"
#include "nist/special_functions.hpp"
#include "nist/tests.hpp"
#include "sw16/pwl_xlogx.hpp"
#include "trng/xoshiro.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>

namespace otf::core {

namespace {

using hw::test_id;

std::int64_t q_round(double v, unsigned fraction_bits)
{
    return static_cast<std::int64_t>(
        std::llround(v * std::ldexp(1.0, static_cast<int>(fraction_bits))));
}

/// The approximate-entropy statistic the platform *implements* is the PWL
/// approximation of ApEn in Q16 fixed point.  The 32-segment table is far
/// too coarse for its output to track the exact chi-squared acceptance
/// region at large n (the region is a few Q16 LSB wide at n = 2^16, and
/// narrower still at 2^20, while the piecewise-linear interpolation error
/// contributes tens of LSB of bias and spread).  Deriving the threshold
/// from the *exact* statistic therefore rejects everything; the correct
/// precomputed constant is the alpha-quantile of the distribution of the
/// implemented statistic under H0.  That quantile is computed here, offline
/// like every other constant: a deterministic Monte-Carlo run over ideal
/// sequences fits mean and variance of the PWL statistic and places the
/// bound a normal quantile below the mean (docs/ARCHITECTURE.md,
/// "Calibrating the ApEn bound").
std::int64_t calibrate_apen_threshold(unsigned log2_n, unsigned m,
                                      double alpha)
{
    static std::mutex mutex;
    static std::map<std::tuple<unsigned, unsigned, double>, std::int64_t>
        cache;
    const auto key = std::make_tuple(log2_n, m, alpha);
    {
        const std::lock_guard<std::mutex> lock(mutex);
        const auto it = cache.find(key);
        if (it != cache.end()) {
            return it->second;
        }
    }

    const std::uint64_t n = std::uint64_t{1} << log2_n;
    const unsigned samples = 256;
    trng::xoshiro256ss rng(0xA9E117C0FEE5ull);

    const auto to_q16 = [&](std::uint64_t nu) -> std::uint32_t {
        if (log2_n >= 16) {
            return static_cast<std::uint32_t>(nu >> (log2_n - 16));
        }
        return static_cast<std::uint32_t>(nu << (16 - log2_n));
    };

    std::vector<std::uint64_t> words((n + 63) / 64);
    std::vector<std::uint32_t> counts_m(std::size_t{1} << m);
    const std::size_t half = counts_m.size() / 2;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (unsigned s = 0; s < samples; ++s) {
        // Sample s is bits [s n, (s + 1) n) of the generator's LSB-first
        // stream: whole words, or for n < 64 a slice of a shared word.
        const std::uint64_t begin = s * n % 64;
        if (begin == 0) {
            for (std::uint64_t& w : words) {
                w = rng.next();
            }
        }
        // Entering the sample with its last m-1 bits in the window makes
        // the n patterns ending at its bits exactly the n cyclic ones.
        std::uint64_t window = 0;
        for (unsigned j = 0; j + 1 < m; ++j) {
            const std::uint64_t i = begin + n - 1 - j;
            window |= ((words[i / 64] >> (i % 64)) & 1u) << j;
        }
        std::fill(counts_m.begin(), counts_m.end(), 0u);
        hw::count_patterns(words.data(), begin, begin + n, m, window,
                           counts_m.data());
        std::int64_t a = 0;
        for (const std::uint32_t nu : counts_m) {
            a += sw16::pwl_xlogx_q16(to_q16(nu));
        }
        // nu_{m-1}[q] = nu_m[q] + nu_m[q + 2^{m-1}]: the (m-1)-bit pattern
        // is the m-bit one without its oldest bit.
        std::int64_t b = 0;
        for (std::size_t q = 0; q < half; ++q) {
            b += sw16::pwl_xlogx_q16(to_q16(counts_m[q] + counts_m[q + half]));
        }
        const double apen = static_cast<double>(a - b);
        sum += apen;
        sum_sq += apen * apen;
    }
    const double mean = sum / samples;
    const double variance =
        (sum_sq - sum * sum / samples) / (samples - 1);
    const double z = nist::normal_quantile(1.0 - alpha);
    const auto threshold = static_cast<std::int64_t>(
        std::floor(mean - z * std::sqrt(std::max(variance, 1.0))));

    const std::lock_guard<std::mutex> lock(mutex);
    cache[key] = threshold;
    return threshold;
}

std::vector<runs_interval> build_runs_intervals(std::uint64_t n,
                                                double alpha,
                                                unsigned interval_count)
{
    // The runs test is only evaluated when the frequency prerequisite
    // holds: |ones - n/2| < 2 sqrt(n).  Split that admissible range into
    // equal N_ones intervals and store the acceptance bounds on the run
    // count, evaluated at the interval midpoint (the paper's
    // stored-constant approach; finer tables trade program memory for
    // accuracy at the interval edges).
    const double nd = static_cast<double>(n);
    const double half = nd / 2.0;
    const double tau_ones = 2.0 * std::sqrt(nd);
    const double e = nist::erfc_inv(alpha);

    const auto lo_allowed =
        static_cast<std::int64_t>(std::floor(half - tau_ones)) + 1;
    const auto hi_allowed =
        static_cast<std::int64_t>(std::ceil(half + tau_ones)) - 1;

    std::vector<runs_interval> intervals;
    intervals.reserve(interval_count);
    const double span = static_cast<double>(hi_allowed - lo_allowed + 1)
        / interval_count;
    for (unsigned i = 0; i < interval_count; ++i) {
        runs_interval iv;
        iv.ones_lo = lo_allowed
            + static_cast<std::int64_t>(std::floor(span * i));
        iv.ones_hi = (i + 1 == interval_count)
            ? hi_allowed
            : lo_allowed
                + static_cast<std::int64_t>(std::floor(span * (i + 1))) - 1;
        if (iv.ones_hi < iv.ones_lo) {
            iv.ones_hi = iv.ones_lo;
        }
        const double mid =
            0.5 * static_cast<double>(iv.ones_lo + iv.ones_hi);
        const double pi = mid / nd;
        const double center = 2.0 * nd * pi * (1.0 - pi);
        const double c = 2.0 * std::sqrt(2.0 * nd) * pi * (1.0 - pi) * e;
        iv.runs_lo = static_cast<std::int64_t>(std::ceil(center - c));
        iv.runs_hi = static_cast<std::int64_t>(std::floor(center + c));
        intervals.push_back(iv);
    }
    return intervals;
}

} // namespace

hw::block_config inverted_design(const hw::block_config& cfg)
{
    hw::block_config d;
    d.log2_n = cfg.log2_n;
    d.tests = cfg.tests;
    if (cfg.tests.has(test_id::block_frequency)) {
        d.bf_log2_m = cfg.bf_log2_m;
    }
    if (cfg.tests.has(test_id::longest_run)) {
        d.lr_log2_m = cfg.lr_log2_m;
        d.lr_v_lo = cfg.lr_v_lo;
        d.lr_v_hi = cfg.lr_v_hi;
    }
    const bool t7 = cfg.tests.has(test_id::non_overlapping_template);
    const bool t8 = cfg.tests.has(test_id::overlapping_template);
    if (t7 || t8) {
        d.template_length = cfg.template_length;
    }
    if (t7) {
        d.t7_template = cfg.t7_template;
        d.t7_log2_m = cfg.t7_log2_m;
    }
    if (t8) {
        d.t8_template = cfg.t8_template;
        d.t8_log2_m = cfg.t8_log2_m;
        d.t8_max_count = cfg.t8_max_count;
    }
    if (cfg.tests.has(test_id::serial)
        || cfg.tests.has(test_id::approximate_entropy)) {
        d.serial_m = cfg.serial_m;
    }
    return d;
}

void require_bounds_for(const hw::block_config& cfg,
                        const critical_values& cv)
{
    const hw::block_config own = inverted_design(cfg);
    if (cv.design == own) {
        return;
    }
    std::string fields;
    for (const hw::config_register& r : hw::config_registers) {
        if (r.get(cv.design) != r.get(own)) {
            fields += (fields.empty() ? "" : ", ") + std::string(r.name)
                + " = " + std::to_string(r.get(cv.design)) + " (not "
                + std::to_string(r.get(own)) + ")";
        }
    }
    throw std::invalid_argument(
        "critical values inverted for another design than \"" + cfg.name
        + "\": one with " + fields);
}

critical_values compute_critical_values(const hw::block_config& cfg,
                                        double alpha,
                                        unsigned runs_intervals_count)
{
    if (!(alpha > 0.0 && alpha < 0.5)) {
        throw std::invalid_argument(
            "compute_critical_values: alpha must be in (0, 0.5)");
    }
    cfg.validate();

    critical_values cv;
    cv.alpha = alpha;
    cv.design = inverted_design(cfg);
    const std::uint64_t n = cfg.n();
    const double nd = static_cast<double>(n);

    if (cfg.tests.has(test_id::frequency)) {
        // P = erfc(|S| / sqrt(2n)) >= alpha  <=>  |S| <= sqrt(2n) erfc^-1(a)
        cv.t1_max_deviation = static_cast<std::int64_t>(
            std::floor(std::sqrt(2.0 * nd) * nist::erfc_inv(alpha)));
    }

    if (cfg.tests.has(test_id::block_frequency)) {
        const std::uint64_t m = std::uint64_t{1} << cfg.bf_log2_m;
        const std::uint64_t blocks = n >> cfg.bf_log2_m;
        // chi^2 = (1/M) sum (2 eps - M)^2; reject when chi^2 above the
        // upper critical value with N degrees of freedom.
        const double crit = nist::chi_squared_critical(
            static_cast<double>(blocks), alpha);
        cv.t2_sum_bound = static_cast<std::int64_t>(
            std::floor(static_cast<double>(m) * crit));
    }

    if (cfg.tests.has(test_id::runs)) {
        cv.t3_prereq_deviation = static_cast<std::int64_t>(
            std::ceil(4.0 * std::sqrt(nd)));
        cv.t3_intervals = build_runs_intervals(n, alpha,
                                               runs_intervals_count);
    }

    if (cfg.tests.has(test_id::longest_run)) {
        const unsigned m = 1u << cfg.lr_log2_m;
        const std::uint64_t blocks = n >> cfg.lr_log2_m;
        const std::vector<double> pi = nist::longest_run_category_probs(
            m, cfg.lr_v_lo, cfg.lr_v_hi);
        const double dof = static_cast<double>(pi.size()) - 1.0;
        const double crit = nist::chi_squared_critical(dof, alpha);
        cv.t4_weights_q.clear();
        for (const double p : pi) {
            cv.t4_weights_q.push_back(
                q_round(1.0 / p, weight_fraction_bits));
        }
        // chi^2 = (1/N) sum nu^2 / pi - N  <=>
        // sum nu^2 (2^q / pi) <= 2^q N (crit + N)
        cv.t4_sum_bound = q_round(
            static_cast<double>(blocks)
                * (crit + static_cast<double>(blocks)),
            weight_fraction_bits);
    }

    if (cfg.tests.has(test_id::non_overlapping_template)) {
        const std::uint64_t m = std::uint64_t{1} << cfg.t7_log2_m;
        const std::uint64_t blocks = n >> cfg.t7_log2_m;
        const nist::mean_variance mv = nist::non_overlapping_template_moments(
            cfg.template_length, static_cast<unsigned>(m));
        const double crit = nist::chi_squared_critical(
            static_cast<double>(blocks), alpha);
        const double scale =
            std::ldexp(1.0, 2 * static_cast<int>(cfg.template_length));
        cv.t7_sum_bound = static_cast<std::int64_t>(
            std::floor(scale * mv.variance * crit));
    }

    if (cfg.tests.has(test_id::overlapping_template)) {
        const std::uint64_t blocks = n >> cfg.t8_log2_m;
        const std::vector<double> pi =
            nist::overlapping_template_category_probs(
                cfg.t8_template, cfg.template_length,
                1u << cfg.t8_log2_m, cfg.t8_max_count);
        const double dof = static_cast<double>(cfg.t8_max_count);
        const double crit = nist::chi_squared_critical(dof, alpha);
        cv.t8_weights_q.clear();
        for (const double p : pi) {
            cv.t8_weights_q.push_back(
                q_round(1.0 / p, weight_fraction_bits));
        }
        cv.t8_sum_bound = q_round(
            static_cast<double>(blocks)
                * (crit + static_cast<double>(blocks)),
            weight_fraction_bits);
    }

    if (cfg.tests.has(test_id::serial)) {
        // n * del-psi^2 = 2^m sum nu_m^2 - 2^{m-1} sum nu_{m-1}^2 (the n^2
        // terms cancel); reject above n * chi2_crit.
        const double dof1 =
            std::ldexp(1.0, static_cast<int>(cfg.serial_m) - 1);
        const double dof2 =
            std::ldexp(1.0, static_cast<int>(cfg.serial_m) - 2);
        cv.t11_del1_bound = static_cast<std::int64_t>(
            std::floor(nd * nist::chi_squared_critical(dof1, alpha)));
        cv.t11_del2_bound = static_cast<std::int64_t>(
            std::floor(nd * nist::chi_squared_critical(dof2, alpha)));
    }

    if (cfg.tests.has(test_id::approximate_entropy)) {
        cv.t12_apen_min_q16 =
            calibrate_apen_threshold(cfg.log2_n, cfg.serial_m, alpha);
    }

    if (cfg.tests.has(test_id::cumulative_sums)) {
        // Largest z whose P-value is still >= alpha (P decreases in z).
        std::uint64_t lo = 1;
        std::uint64_t hi = n;
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo + 1) / 2;
            if (nist::cumulative_sums_p_value(
                    static_cast<std::int64_t>(mid), n) >= alpha) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        cv.t13_z_bound = static_cast<std::int64_t>(lo);
    }

    return cv;
}

} // namespace otf::core
