#include "nist/extended_tests.hpp"
#include "nist/published_cache.hpp"
#include "nist/special_functions.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <optional>
#include <stdexcept>

namespace otf::nist {

namespace {

using cplx = std::complex<double>;

// One complex value as the two lanes {re, im} of a GCC/Clang vector, so
// that a sum, a difference or a twiddle product is a few two-lane
// operations (SSE2 on x86-64).  Values move in and out of std::complex
// storage by memcpy.
using v2d = double __attribute__((vector_size(16)));

v2d load(const cplx* p)
{
    v2d v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

void store(cplx* p, v2d v)
{
    std::memcpy(static_cast<void*>(p), &v, sizeof v);
}

/// {im, re}.
v2d swap(v2d a)
{
    return v2d{a[1], a[0]};
}

/// {re, -im}.
v2d conj(v2d a)
{
    return a * v2d{1.0, -1.0};
}

/// The twiddle c + i s as the lane pairs {c, c} and {-s, s}: then
/// a w = a {c, c} + swap(a) {-s, s} rounds as the textbook product
/// (re = ar c - ai s, im = ai c + ar s).  std::complex's operator* goes
/// through __muldc3 for its inf/NaN recovery, which no finite transform
/// input needs.
struct twiddle {
    v2d re;
    v2d im;
};

twiddle make_twiddle(cplx w)
{
    return {v2d{w.real(), w.real()}, v2d{-w.imag(), w.imag()}};
}

v2d mul(v2d a, const twiddle& w)
{
    return a * w.re + swap(a) * w.im;
}

// twiddle[k] = exp(-2 pi i k / n); the upper half mirrors the lower.
std::vector<cplx> make_twiddles(std::size_t n)
{
    const std::size_t half = n / 2;
    std::vector<cplx> twiddle(n);
    for (std::size_t k = 0; k <= half; ++k) {
        const double angle = -2.0 * std::numbers::pi * static_cast<double>(k)
            / static_cast<double>(n);
        twiddle[k] = {std::cos(angle), std::sin(angle)};
    }
    for (std::size_t k = half + 1; k < n; ++k) {
        twiddle[k] = std::conj(twiddle[n - k]);
    }
    return twiddle;
}

/// One pass of the transform: `radix` transforms of length `span`, side
/// by side in each block of radix * span points, combined into one.
struct stage {
    std::size_t radix;
    std::size_t span;
    std::size_t twiddle; ///< offset of the stage's twiddles in the plan
};

/// The mixed-radix transform of one real length n, built once.  An even
/// n runs as a half-length complex transform of the packed pairs
/// z[k] = x[2k] + i x[2k+1]; an odd n at full length.  The length
/// factors into radix-4 passes, one radix-2 pass for an odd power of
/// two, and one direct radix-p pass per odd prime factor p.  Decimation
/// in time: the input goes into `leaf` order, then the passes run in
/// place, innermost first.  A pass of radix p and span m combines, in
/// each block of p m positions, the p transforms at offsets r m.
struct spectral_plan {
    std::size_t n = 0;
    std::size_t len = 0;                ///< complex points transformed
    std::size_t max_radix = 1;
    std::vector<std::uint32_t> leaf;    ///< input point at each position
    std::vector<stage> stages;          ///< innermost first
    /// Per stage: exp(-2 pi i r q / (radix span)) at (r - 1) span + q for
    /// r in [1, radix), q < span; an odd radix then adds its radix roots
    /// exp(-2 pi i k / radix).
    std::vector<twiddle> twiddles;
    std::vector<twiddle> unpack;        ///< even n: exp(-2 pi i j / n), j < n/2
    double threshold = 0.0;             ///< T = sqrt(n ln(1/0.05))
    /// The least x with sqrt(x) >= T: a bin is below T exactly when its
    /// squared magnitude is below this.
    double below = 0.0;
};

spectral_plan make_plan(std::size_t n)
{
    spectral_plan plan;
    plan.n = n;
    const bool even = n % 2 == 0;
    plan.len = even ? n / 2 : n;
    const std::vector<cplx> root = make_twiddles(n);

    // Factors, outermost first: a 2 for an odd power of two, the odd
    // primes, then the 4s, so that the innermost pass is radix 4 whenever
    // 4 divides len (dft_test() tabulates that pass for bit input).
    std::vector<std::size_t> factors;
    std::size_t fours = 0;
    std::size_t rest = plan.len;
    for (; rest % 4 == 0; rest /= 4) {
        ++fours;
    }
    if (rest % 2 == 0) {
        factors.push_back(2);
        rest /= 2;
    }
    for (std::size_t p = 3; rest > 1; p += 2) {
        p = p * p > rest ? rest : p;
        for (; rest % p == 0; rest /= p) {
            factors.push_back(p);
        }
    }
    factors.insert(factors.end(), fours, 4);
    // Input point i = r_1 + p_1 (r_2 + p_2 (r_3 + ...)) lands at position
    // r_1 len/p_1 + r_2 len/(p_1 p_2) + ...
    plan.leaf.resize(plan.len);
    for (std::size_t i = 0; i < plan.len; ++i) {
        std::size_t pos = 0;
        std::size_t digits = i;
        std::size_t span = plan.len;
        for (const std::size_t p : factors) {
            span /= p;
            pos += digits % p * span;
            digits /= p;
        }
        plan.leaf[pos] = static_cast<std::uint32_t>(i);
    }
    std::size_t span = 1;
    for (auto it = factors.rbegin(); it != factors.rend(); ++it) {
        const std::size_t p = *it;
        plan.stages.push_back({p, span, plan.twiddles.size()});
        plan.max_radix = std::max(plan.max_radix, p);
        // exp(-2 pi i x / (p span)) is root[x n / (p span)].
        const std::size_t step = n / (p * span);
        for (std::size_t r = 1; r < p; ++r) {
            for (std::size_t q = 0; q < span; ++q) {
                plan.twiddles.push_back(make_twiddle(root[r * q * step]));
            }
        }
        if (p % 2 != 0) {
            for (std::size_t k = 0; k < p; ++k) {
                plan.twiddles.push_back(make_twiddle(root[k * (n / p)]));
            }
        }
        span *= p;
    }
    if (even) {
        for (std::size_t j = 0; j < n / 2; ++j) {
            plan.unpack.push_back(make_twiddle(root[j]));
        }
    }
    plan.threshold =
        std::sqrt(static_cast<double>(n) * std::log(1.0 / 0.05));
    double below = plan.threshold * plan.threshold;
    while (std::sqrt(below) < plan.threshold) {
        below = std::nextafter(below, std::numeric_limits<double>::infinity());
    }
    while (std::sqrt(std::nextafter(below, 0.0)) >= plan.threshold) {
        below = std::nextafter(below, 0.0);
    }
    plan.below = below;
    return plan;
}

// The plans of the first 64 lengths stay cached for the process (the
// escalation evidence only produces 128 w bits, w <= 8); further lengths
// build a plan per call into `uncached`.
const spectral_plan& plan_for(std::size_t n,
                              std::optional<spectral_plan>& uncached)
{
    static published_cache<std::size_t, spectral_plan, 64> plans;
    return plans.get(n, uncached, [n] { return make_plan(n); });
}

// ws sized for the plan: its points (the transform's len, then max_radix
// of working space) and the n/2 squared magnitudes.  Returns the points.
cplx* points_for(const spectral_plan& plan, dft_workspace& ws)
{
    ws.points.resize(plan.len + plan.max_radix);
    ws.squared.resize(plan.n / 2);
    return ws.points.data();
}

// With the input in leaf order in ws.points, the plan's passes from
// stages[first] on, in place, then the squared magnitudes of the first
// n/2 bins into ws.squared.
void transform(const spectral_plan& plan, std::size_t first,
               dft_workspace& ws)
{
    const std::size_t len = plan.len;
    cplx* const x = ws.points.data();
    cplx* const pairs = x + len;
    double* const squared = ws.squared.data();
    for (std::size_t i = first; i < plan.stages.size(); ++i) {
        const stage& st = plan.stages[i];
        const std::size_t m = st.span;
        const twiddle* tw = plan.twiddles.data() + st.twiddle;
        for (cplx* y = x; y != x + len; y += st.radix * m) {
            if (st.radix == 2) {
                for (std::size_t q = 0; q < m; ++q) {
                    const v2d a = load(y + q);
                    const v2d t = mul(load(y + q + m), tw[q]);
                    store(y + q, a + t);
                    store(y + q + m, a - t);
                }
            } else if (st.radix == 4) {
                for (std::size_t q = 0; q < m; ++q) {
                    const v2d a0 = load(y + q);
                    const v2d a1 = mul(load(y + q + m), tw[q]);
                    const v2d a2 = mul(load(y + q + 2 * m), tw[m + q]);
                    const v2d a3 = mul(load(y + q + 3 * m), tw[2 * m + q]);
                    const v2d b0 = a0 + a2;
                    const v2d b1 = a0 - a2;
                    const v2d b2 = a1 + a3;
                    // exp(-2 pi i / 4) (a1 - a3)
                    const v2d minus_i_b3 = conj(swap(a1 - a3));
                    store(y + q, b0 + b2);
                    store(y + q + m, b1 + minus_i_b3);
                    store(y + q + 2 * m, b0 - b2);
                    store(y + q + 3 * m, b1 - minus_i_b3);
                }
            } else {
                // The direct sum y[q + s m] = sum_r t_r w^(r s), w =
                // exp(-2 pi i / p), over the twiddled inputs t_r, with
                // the inputs r and p - r paired: for a_r = t_r + t_(p-r),
                // b_r = t_r - t_(p-r) and r, s in 1..(p-1)/2,
                //   y[q + s m]       = t_0 + sum_r a_r cos - i b_r sin,
                //   y[q + (p - s) m] = t_0 + sum_r a_r cos + i b_r sin,
                // at the angle 2 pi r s / p.  `pairs` holds a_r at r and
                // b_r at h + r.
                const std::size_t p = st.radix;
                const std::size_t h = p / 2;
                const twiddle* roots = tw + (p - 1) * m; // roots[k] = w^k
                for (std::size_t q = 0; q < m; ++q) {
                    const v2d t0 = load(y + q);
                    v2d sum = t0;
                    for (std::size_t r = 1; r <= h; ++r) {
                        const v2d u =
                            mul(load(y + r * m + q), tw[(r - 1) * m + q]);
                        const v2d v = mul(load(y + (p - r) * m + q),
                                          tw[(p - r - 1) * m + q]);
                        store(pairs + r, u + v);
                        store(pairs + h + r, u - v);
                        sum += u + v;
                    }
                    store(y + q, sum);
                    for (std::size_t s = 1; s <= h; ++s) {
                        v2d re = t0;
                        v2d im = {0.0, 0.0};
                        std::size_t k = 0; // r s mod p
                        for (std::size_t r = 1; r <= h; ++r) {
                            k = k + s >= p ? k + s - p : k + s;
                            // roots[k].re = {cos, cos}, .im[0] = sin.
                            re += load(pairs + r) * roots[k].re;
                            im += load(pairs + h + r) * roots[k].im[0];
                        }
                        const v2d minus_i_im = conj(swap(im));
                        store(y + q + s * m, re + minus_i_im);
                        store(y + q + (p - s) * m, re - minus_i_im);
                    }
                }
            }
        }
    }
    const auto squared_magnitude = [](v2d v) {
        const v2d sq = v * v;
        return sq[0] + sq[1];
    };
    if (plan.n % 2 != 0) {
        for (std::size_t j = 0; j < plan.n / 2; ++j) {
            squared[j] = squared_magnitude(load(x + j));
        }
        return;
    }
    // Z[j] = E[j] + i O[j] for the DFTs E, O of the even and odd samples;
    // real inputs give conj(Z[len - j]) = E[j] - i O[j].  Then
    // X[j] = E[j] + w^j O[j] and X[len - j] = conj(E[j] - w^j O[j]), so
    // one split serves both bins of a pair (j = 0 and j = len/2 pair
    // with themselves).
    for (std::size_t j = 0; j <= len / 2; ++j) {
        const std::size_t mirror_index = j == 0 ? 0 : len - j;
        const v2d z = load(x + j);
        const v2d mirror = conj(load(x + mirror_index));
        const v2d e = 0.5 * (z + mirror);
        const v2d t = mul(conj(swap(0.5 * (z - mirror))), plan.unpack[j]);
        squared[j] = squared_magnitude(e + t);
        if (mirror_index != j) {
            squared[mirror_index] = squared_magnitude(e - t);
        }
    }
}

// The packed point of bits 2k, 2k + 1 (bit 1 = +1, 0 = -1), indexed by
// their value.
constexpr std::array<cplx, 4> kPoints = {
    cplx{-1.0, -1.0}, cplx{1.0, -1.0}, cplx{-1.0, 1.0}, cplx{1.0, 1.0}};

// The radix-4 pass of span 1 over four packed points, for every input:
// entry v holds the transform of the points kPoints[(v >> 2r) & 3],
// r = 0..3.  Its values are small integers, exactly what transform()
// computes from the points.
constexpr std::array<std::array<cplx, 4>, 256> make_leaf_passes()
{
    std::array<std::array<cplx, 4>, 256> table{};
    for (unsigned v = 0; v < 256; ++v) {
        std::array<cplx, 4> a{};
        for (unsigned r = 0; r < 4; ++r) {
            a[r] = kPoints[(v >> (2 * r)) & 3u];
        }
        const cplx b0 = a[0] + a[2];
        const cplx b1 = a[0] - a[2];
        const cplx b2 = a[1] + a[3];
        const cplx b3 = a[1] - a[3];
        const cplx minus_i_b3(b3.imag(), -b3.real());
        table[v] = {b0 + b2, b1 + minus_i_b3, b0 - b2, b1 - minus_i_b3};
    }
    return table;
}

constexpr std::array<std::array<cplx, 4>, 256> kLeafPasses =
    make_leaf_passes();

// Input point k = point(k) at each leaf position of x.
template <class Point>
void gather(const spectral_plan& plan, cplx* x, Point point)
{
    for (std::size_t pos = 0; pos < plan.len; ++pos) {
        x[pos] = point(plan.leaf[pos]);
    }
}

} // namespace

std::vector<double> dft_magnitudes(const std::vector<double>& input)
{
    const std::size_t n = input.size();
    if (n < 2) {
        return {};
    }
    std::optional<spectral_plan> uncached;
    const spectral_plan& plan = plan_for(n, uncached);
    dft_workspace ws;
    const bool even = n % 2 == 0;
    gather(plan, points_for(plan, ws), [&](std::size_t k) {
        return even ? cplx(input[2 * k], input[2 * k + 1])
                    : cplx(input[k], 0.0);
    });
    transform(plan, 0, ws);
    std::vector<double> magnitudes = std::move(ws.squared);
    for (double& m : magnitudes) {
        // Not std::abs: its hypot guards an overflow no bin can reach.
        m = std::sqrt(m);
    }
    return magnitudes;
}

dft_result dft_test(const bit_sequence& seq)
{
    dft_workspace ws;
    return dft_test(seq, ws);
}

dft_result dft_test(const bit_sequence& seq, dft_workspace& ws)
{
    const std::size_t n = seq.size();
    if (n < 2) {
        throw std::invalid_argument("dft_test: need at least two bits");
    }
    std::optional<spectral_plan> uncached;
    const spectral_plan& plan = plan_for(n, uncached);
    cplx* const x = points_for(plan, ws);
    // Point k of an even length packs bits 2k and 2k + 1.
    const std::vector<std::uint64_t>& words = seq.words();
    const auto pair_bits = [&](std::size_t k) {
        return static_cast<unsigned>(words[k / 32] >> (2 * (k % 32))) & 3u;
    };
    std::size_t first = 0;
    if (n % 2 != 0) {
        gather(plan, x, [&](std::size_t k) {
            return cplx(seq[k] ? 1.0 : -1.0, 0.0);
        });
    } else if (plan.stages.empty() || plan.stages[0].radix != 4) {
        gather(plan, x, [&](std::size_t k) { return kPoints[pair_bits(k)]; });
    } else {
        // The innermost pass by table: leaf block b holds the points
        // leaf[4b] + r len/4, r = 0..3.
        const std::size_t quarter = plan.len / 4;
        for (std::size_t pos = 0; pos < plan.len; pos += 4) {
            const std::size_t k = plan.leaf[pos];
            const unsigned v = pair_bits(k) | pair_bits(k + quarter) << 2
                | pair_bits(k + 2 * quarter) << 4
                | pair_bits(k + 3 * quarter) << 6;
            std::copy_n(kLeafPasses[v].begin(), 4, x + pos);
        }
        first = 1;
    }
    transform(plan, first, ws);
    std::size_t below = 0;
    for (const double squared : ws.squared) {
        below += squared < plan.below ? 1 : 0;
    }

    dft_result r;
    const double nd = static_cast<double>(n);
    // 95% peak threshold: T = sqrt(n ln(1/0.05)).
    r.threshold = plan.threshold;
    r.n0 = 0.95 * nd / 2.0;
    r.n1 = static_cast<double>(below);
    r.d = (r.n1 - r.n0) / std::sqrt(nd * 0.95 * 0.05 / 4.0);
    r.p_value = erfc(std::fabs(r.d) / std::sqrt(2.0));
    return r;
}

} // namespace otf::nist
