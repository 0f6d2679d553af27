#include "nist/extended_tests.hpp"
#include "nist/special_functions.hpp"

#include <cmath>
#include <complex>
#include <map>
#include <mutex>
#include <numbers>
#include <stdexcept>

namespace otf::nist {

namespace {

using cplx = std::complex<double>;

// Textbook product.  std::complex's operator* goes through __muldc3 for
// its inf/NaN recovery, which no finite transform input needs.
cplx mul(cplx a, cplx b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

// Mixed-radix decimation in time: out[0, len) = DFT of in[0], in[stride],
// ..., where twiddle[k * tw_stride] = exp(-2 pi i k / len).  An even len
// splits into the two length-len/2 transforms of the even and odd samples,
// stored at out[0, len/2) and out[len/2, len), down to a length-4 or
// length-2 butterfly.  An odd len = p m splits over its smallest prime
// factor p into p length-m transforms of the decimated subsequences,
// stored at out[r m, (r + 1) m); a prime len is the direct sum over the
// table.  scratch holds >= p entries.
void transform(cplx* out, const cplx* in, std::size_t len,
               std::size_t stride, const cplx* twiddle,
               std::size_t tw_stride, cplx* scratch)
{
    if (len == 2) {
        out[0] = in[0] + in[stride];
        out[1] = in[0] - in[stride];
        return;
    }
    if (len == 4) {
        const cplx a = in[0] + in[2 * stride];
        const cplx b = in[0] - in[2 * stride];
        const cplx c = in[stride] + in[3 * stride];
        const cplx d = in[stride] - in[3 * stride];
        const cplx minus_i_d(d.imag(), -d.real()); // exp(-2 pi i / 4) d
        out[0] = a + c;
        out[1] = b + minus_i_d;
        out[2] = a - c;
        out[3] = b - minus_i_d;
        return;
    }
    if (len % 2 == 0) {
        const std::size_t m = len / 2;
        transform(out, in, m, stride * 2, twiddle, tw_stride * 2, scratch);
        transform(out + m, in + stride, m, stride * 2, twiddle,
                  tw_stride * 2, scratch);
        for (std::size_t q = 0; q < m; ++q) {
            const cplx t = mul(out[q + m], twiddle[q * tw_stride]);
            out[q + m] = out[q] - t;
            out[q] += t;
        }
        return;
    }
    std::size_t p = 3;
    while (p * p <= len && len % p != 0) {
        p += 2;
    }
    p = len % p == 0 ? p : len;
    const std::size_t m = len / p;
    if (m > 1) {
        for (std::size_t r = 0; r < p; ++r) {
            transform(out + r * m, in + r * stride, m, stride * p, twiddle,
                      tw_stride * p, scratch);
        }
    }
    for (std::size_t q = 0; q < m; ++q) {
        for (std::size_t r = 0; r < p; ++r) {
            scratch[r] = m == 1
                ? in[r * stride]
                : mul(out[r * m + q], twiddle[r * q * tw_stride]);
        }
        // out[q + s m] = sum_r scratch[r] exp(-2 pi i r s / p).
        for (std::size_t s = 0; s < p; ++s) {
            cplx sum = scratch[0];
            std::size_t k = 0; // r s mod p
            for (std::size_t r = 1; r < p; ++r) {
                k = (k + s) % p;
                sum += mul(scratch[r], twiddle[k * m * tw_stride]);
            }
            out[q + s * m] = sum;
        }
    }
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

// Distinct lengths whose twiddles stay cached for the process lifetime
// (the escalation evidence only produces 128 w bits, w <= 8); further
// lengths build a table per call into `uncached`.
constexpr std::size_t kCachedLengths = 64;

// The twiddle table of length n, built once per length.  Concurrent
// callers of one length wait for a single build (std::call_once); other
// lengths build in parallel, outside the cache lock.
const std::vector<cplx>& twiddles(std::size_t n, std::vector<cplx>& uncached)
{
    struct table {
        std::once_flag built;
        std::vector<cplx> twiddle;
    };
    static std::mutex mutex;
    static std::map<std::size_t, table> cache; // nodes never move
    table* t = nullptr;
    {
        const std::lock_guard lock(mutex);
        auto it = cache.find(n);
        if (it == cache.end() && cache.size() < kCachedLengths) {
            it = cache.try_emplace(n).first;
        }
        if (it != cache.end()) {
            t = &it->second;
        }
    }
    if (t == nullptr) {
        uncached = make_twiddles(n);
        return uncached;
    }
    std::call_once(t->built, [&] { t->twiddle = make_twiddles(n); });
    return t->twiddle;
}

} // namespace

std::vector<double> dft_magnitudes(const std::vector<double>& input)
{
    const std::size_t n = input.size();
    const std::size_t half = n / 2;
    std::vector<double> magnitudes(half, 0.0);
    if (n < 2) {
        return magnitudes;
    }
    std::vector<cplx> uncached;
    const std::vector<cplx>& twiddle = twiddles(n, uncached);
    // An even n runs as a half-length complex transform of the packed
    // pairs z[k] = x[2k] + i x[2k+1] (its twiddles are every other entry);
    // an odd n runs at full length.
    const bool even = n % 2 == 0;
    const std::size_t len = even ? half : n;
    // One buffer: the packed input, the transform and the radix scratch.
    std::vector<cplx> buffer(3 * len);
    cplx* const packed = buffer.data();
    cplx* const z = packed + len;
    for (std::size_t k = 0; k < len; ++k) {
        packed[k] = even ? cplx(input[2 * k], input[2 * k + 1])
                         : cplx(input[k], 0.0);
    }
    transform(z, packed, len, 1, twiddle.data(), even ? 2 : 1, z + len);
    for (std::size_t j = 0; j < half; ++j) {
        cplx x = z[j];
        if (even) {
            // Z[j] = E[j] + i O[j] for the DFTs E, O of the even and odd
            // samples; real inputs give conj(Z[len - j]) = E[j] - i O[j].
            const cplx mirror = std::conj(z[j == 0 ? 0 : len - j]);
            const cplx e = 0.5 * (z[j] + mirror);
            const cplx d = z[j] - mirror;
            const cplx o(0.5 * d.imag(), -0.5 * d.real());
            x = e + mul(twiddle[j], o);
        }
        // Not std::abs: its hypot guards an overflow no bin can reach.
        magnitudes[j] =
            std::sqrt(x.real() * x.real() + x.imag() * x.imag());
    }
    return magnitudes;
}

dft_result dft_test(const bit_sequence& seq)
{
    const std::size_t n = seq.size();
    if (n < 2) {
        throw std::invalid_argument("dft_test: need at least two bits");
    }
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = 2.0 * static_cast<double>(seq[i]) - 1.0;
    }
    const std::vector<double> magnitudes = dft_magnitudes(x);

    dft_result r;
    const double nd = static_cast<double>(n);
    // 95% peak threshold: T = sqrt(n ln(1/0.05)).
    r.threshold = std::sqrt(nd * std::log(1.0 / 0.05));
    r.n0 = 0.95 * nd / 2.0;
    std::size_t below = 0;
    for (const double magnitude : magnitudes) {
        if (magnitude < r.threshold) {
            ++below;
        }
    }
    r.n1 = static_cast<double>(below);
    r.d = (r.n1 - r.n0) / std::sqrt(nd * 0.95 * 0.05 / 4.0);
    r.p_value = erfc(std::fabs(r.d) / std::sqrt(2.0));
    return r;
}

} // namespace otf::nist
