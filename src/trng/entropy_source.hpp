// Entropy-source interface.
//
// The paper's platform sits next to a physical TRNG on the chip and reads it
// bit by bit.  We have no silicon, so the sources here are behavioural
// models: an ideal generator, parametric degradations (bias, correlation),
// failure modes (stuck-at, bursts, aging drift) and a jittered
// ring-oscillator model that reproduces the frequency-injection attack of
// Markettos & Moore (CHES 2009), the attack class the paper cites as the
// motivation for on-the-fly testing.  Each model produces exactly the
// statistical defect its real counterpart would, which is all the testing
// platform can observe.
#pragma once

#include "base/bits.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace otf::trng {

class entropy_source {
public:
    virtual ~entropy_source() = default;

    /// \brief Produce the next random bit (one bit per TRNG clock cycle).
    virtual bool next_bit() = 0;

    /// \brief Bulk fast lane: fill `out[0..nwords)` with packed words
    /// where bit i of out[j] is the (64*j + i)-th bit next_bit() would
    /// have produced (LSB-first stream order, the engine::consume_span
    /// convention).
    ///
    /// The default assembles words from next_bit(), so every model is
    /// automatically bit-exact across both lanes; models with a native
    /// word generator override it for speed (ideal_source draws one
    /// xoshiro word per 64 bits, the source_model decorators call their
    /// one per-word generator, next_word(), once per output word).
    /// \param out    destination buffer of at least `nwords` words
    /// \param nwords number of 64-bit words (= 64 * nwords stream bits)
    virtual void fill_words(std::uint64_t* out, std::size_t nwords);

    /// \brief Window-loop adapter hook (core::run_windows): like
    /// fill_words(), but a *finite* source may deliver fewer words than
    /// requested once its trace runs dry, and signals end-of-stream by
    /// returning 0 instead of throwing -- the loop turns that into one
    /// error naming the source and the window count.
    ///
    /// The default forwards to fill_words() and reports `nwords` (the
    /// behavioural models are endless); finite sources (replay_source)
    /// override it.  Trailing bits short of a full word are not
    /// reachable through the word-granular stream.
    /// \param out    destination buffer of at least `nwords` words
    /// \param nwords words requested
    /// \return words actually produced; 0 = source exhausted
    virtual std::size_t fill_words_available(std::uint64_t* out,
                                             std::size_t nwords);

    /// \brief Human-readable model name for reports.
    virtual std::string name() const = 0;

    /// \brief Convenience: materialize the next `n` bits as a sequence.
    /// \param n number of bits to draw through next_bit()
    bit_sequence generate(std::size_t n);

    /// \brief Convenience: the next `nwords * 64` bits through
    /// fill_words().
    /// \param nwords number of 64-bit words to generate
    std::vector<std::uint64_t> generate_words(std::size_t nwords);

    /// \brief Allocation-free variant for hot paths: resize `out` to
    /// `nwords` (reusing its capacity across calls) and fill it.  The
    /// returning overload above allocates a fresh vector per call, which
    /// is fine for setup code but not inside a per-window loop.
    /// \param out    caller-owned buffer, resized to `nwords`
    /// \param nwords number of 64-bit words to generate
    void generate_words(std::vector<std::uint64_t>& out, std::size_t nwords);
};

} // namespace otf::trng
