// xoshiro256** pseudo-random generator (Blackman & Vigna).
//
// Drives every behavioural entropy-source model.  A high-quality PRNG is the
// right stand-in for an ideal TRNG here: the NIST suite was designed for
// PRNG evaluation in the first place, and xoshiro256** passes it at the
// sequence lengths the platform uses.  Deterministic seeding keeps every
// experiment in the repository reproducible.
//
// The draw path is header-inline: every adversarial model burns a handful
// of draws per 64 output bits (Bernoulli mask folds, dwell sampling), so
// an out-of-line call per draw would dominate each model's next_word()
// (trng/source_model.hpp).  The one bulk path, fill_below(), is out of
// line: it decides 64 Bernoulli draws per call-level word.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace otf::trng {

/// \brief Integer threshold of a Bernoulli(p) draw: T = ceil(p * 2^53).
/// For an integer k, k * 2^-53 < p iff k < T, so `(next() >> 11) < T` is
/// exactly `next_double() < p`.  p must already be validated to [0, 1]
/// (the cast of a NaN is undefined); the result is in [0, 2^53].
inline std::uint64_t bernoulli_threshold(double p)
{
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

class xoshiro256ss {
public:
    /// Seeded via splitmix64 so that any 64-bit seed yields a good state.
    explicit xoshiro256ss(std::uint64_t seed);

    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1).
    double next_double()
    {
        // 53 top bits into the mantissa.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// One fair bit.
    bool next_bit()
    {
        if (bits_left_ == 0) {
            bit_buffer_ = next();
            bits_left_ = 64;
        }
        const bool bit = (bit_buffer_ & 1u) != 0;
        bit_buffer_ >>= 1;
        --bits_left_;
        return bit;
    }

    /// 64 fair bits packed LSB-first in next_bit() order: bit i of the
    /// result is exactly the bit the i-th of 64 successive next_bit()
    /// calls would have returned, including any bits still buffered from
    /// an earlier partial drain.  This is the generation half of the
    /// word-at-a-time fast lane.
    std::uint64_t next_bits64()
    {
        if (bits_left_ == 0) {
            return next();
        }
        // Splice: the remaining buffered bits first (they are already in
        // LSB-first consumption order), then the low bits of a fresh word.
        const unsigned buffered = bits_left_;
        const std::uint64_t low = bit_buffer_;
        const std::uint64_t fresh = next();
        const std::uint64_t word = low | (fresh << buffered);
        bit_buffer_ = fresh >> (64 - buffered);
        // bits_left_ stays the same: we consumed `buffered` old bits plus
        // the low 64 - buffered fresh ones, leaving `buffered` fresh bits
        // behind.
        return word;
    }

    /// \brief Bernoulli words: bit i of out[j] is `(next() >> 11) <
    /// threshold` for the (64 j + i)-th of 64 * nwords successive next()
    /// draws -- with threshold = bernoulli_threshold(p), exactly the
    /// `next_double() < p` decisions, in the same order.  The state walk
    /// runs scalar and the scrambler plus the comparison four draws at a
    /// time, under bits::span_kernel (both ISA clones).  Like next() and
    /// next_double(), it neither reads nor drains the next_bit() buffer.
    /// \param threshold in [0, 2^53] (0: all zeros, 2^53: all ones)
    /// \param out       destination of at least `nwords` words
    /// \param nwords    words to produce (64 draws each)
    void fill_below(std::uint64_t threshold, std::uint64_t* out,
                    std::size_t nwords);

private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    std::uint64_t bit_buffer_ = 0;
    unsigned bits_left_ = 0;
};

} // namespace otf::trng
