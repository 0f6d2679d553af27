// Adversarial source-model library: physically-motivated degradation and
// attack decorators over any entropy_source.
//
// The seed models in trng/sources.hpp are standalone generators; real
// embedded failures are better described as a *transformation* of a
// healthy source -- a trap toggling the comparator level (random telegraph
// noise), a supply ramp collapsing SRAM cells onto their power-up
// fingerprint, an attacker splicing a recorded block over the true stream.
// `source_model` is the decorator base for that library: it wraps an inner
// source, produces the perturbed stream, and exposes a `severity` dial in
// [0, 1] that a scenario schedule (core/scenario.hpp) can drive over time
// (0 = transparent pass-through of the model's effect, 1 = the model's
// configured peak).
//
// Word-lane contract.  Every model generates natively 64 bits at a time
// through its only generator, `next_word()`; the base class drains that
// word for `next_bit()` and calls it once per output word of
// `fill_words()`, splicing exactly like xoshiro256ss's bit buffer.
// Per-bit and word lanes are therefore bit-exact *by construction* for any
// interleaving, and a stack of models keeps the fleet's word-at-a-time
// throughput (a handful of PRNG draws per 64 bits instead of one per bit).
// Severity changes take effect at the next 64-bit boundary; windows are
// word-multiples, so per-window schedules are exact.
// tests/test_generation_oracle.cpp pins every model's stream by digest.
//
// Physical motivation per model is documented in docs/SCENARIOS.md.
#pragma once

#include "trng/entropy_source.hpp"
#include "trng/xoshiro.hpp"

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace otf::trng {

/// \brief Mask word with independent per-bit P[bit = 1] = q/256.
///
/// Header-inlined: this is the per-word core of every model's mask
/// fold, a handful of draws that an out-of-line call would dominate.
/// \param rng fair-word generator supplying the entropy
/// \param q   probability numerator, clamped to [0, 256]
/// \return 64 independent Bernoulli(q/256) bits (LSB-first, like every
/// word in the fast lane); consumes 8 - countr_zero(q) fair words
inline std::uint64_t bernoulli_mask(xoshiro256ss& rng, unsigned q)
{
    if (q == 0) {
        return 0;
    }
    if (q >= 256) {
        return ~std::uint64_t{0};
    }
    // Binary-fraction combine: for p = q/256 = 0.d1 d2 ... d8 (base 2),
    // fold fair words from the least significant digit upwards with
    // OR (digit 1) / AND (digit 0); each bit of the result is then an
    // independent Bernoulli(p) draw.  Digits below the lowest set one
    // contribute nothing, so the fold starts there.
    std::uint64_t result = 0;
    for (unsigned j = static_cast<unsigned>(std::countr_zero(q)); j < 8;
         ++j) {
        const std::uint64_t w = rng.next();
        result = ((q >> j) & 1u) != 0 ? (w | result) : (w & result);
    }
    return result;
}

/// \brief Sample a dwell time of >= 1 bits with approximately the given
/// mean (floor-discretized exponential; one next_double() draw).
/// \param rng       the model's private generator
/// \param mean_bits target mean dwell in bits (>= 1)
std::uint64_t geometric_dwell(xoshiro256ss& rng, double mean_bits);

/// \brief Decorator base for degradation/attack models over an inner
/// entropy source.
///
/// Derived models implement `next_word()` only; the base provides the
/// bit lane, the word lane (with partial-buffer splicing) and helpers to
/// pull inner-source bits in sub-word chunks.
class source_model : public entropy_source {
public:
    /// \brief Wrap `inner`; the model starts at severity 1 (fully active)
    /// so it is usable standalone, scenario schedules dial it down/up.
    /// \throws std::invalid_argument when `inner` is null
    explicit source_model(std::unique_ptr<entropy_source> inner);

    /// Drains the model's buffered output word (bit-exact with the word
    /// lane by construction).
    bool next_bit() final;

    /// Native word lane: one `next_word()` per output word, with any
    /// partially drained buffer spliced over the result, mirroring
    /// xoshiro256ss::next_bits64.
    void fill_words(std::uint64_t* out, std::size_t nwords) final;

    /// \brief Set the model's activation level.
    /// \param s severity in [0, 1]; takes effect at the next 64-bit word
    /// \throws std::invalid_argument outside [0, 1]
    void set_severity(double s);
    double severity() const { return severity_; }

    /// The wrapped (healthy or further-decorated) source.
    entropy_source& inner() { return *inner_; }
    const entropy_source& inner() const { return *inner_; }

protected:
    /// Produce the next 64 output bits (LSB-first stream order).
    virtual std::uint64_t next_word() = 0;

    /// Hook: severity changed (e.g. resample a dwell time).
    virtual void severity_changed() {}

    /// Severity quantized to [0, 256] -- the resolution of the Bernoulli
    /// masks; models document this granularity in their parameters.
    unsigned severity_q() const;

    /// Next 64 bits of the inner stream.
    std::uint64_t inner_word();

    /// \brief Next `k` bits of the inner stream, LSB-packed.
    /// \param k chunk size in [1, 64]
    std::uint64_t take_inner(unsigned k);

private:
    std::unique_ptr<entropy_source> inner_;
    double severity_ = 1.0;
    // Output-side buffer (drained by next_bit, spliced by fill_words).
    std::uint64_t out_buf_ = 0;
    unsigned out_left_ = 0;
    // Inner-side buffer (for models that consume sub-word chunks).
    std::uint64_t in_buf_ = 0;
    unsigned in_left_ = 0;
};

/// Random-telegraph-noise burst model: a slow oxide trap toggles the
/// sampling comparator between a healthy regime and a level-shifted
/// regime in which the output sticks at `level`.
///
/// Dwell times in both regimes are (approximately) exponential; severity
/// scales the trap's duty cycle from 0 (never active) to `duty`.  Models
/// the RTN-dominated failures of fully-integrated TRNGs (Wirth et al.):
/// bursts of constant output interleaved with healthy stretches, which
/// the runs/longest-run/frequency tests see long before the average bias
/// moves.
/// Parameters of rtn_source (namespace scope: GCC 12 cannot use a nested
/// aggregate with default member initializers as a default argument).
struct rtn_parameters {
    /// Mean burst (trap-active) length in bits.
    double dwell_on = 256.0;
    /// Fraction of time spent trap-active at severity 1 (in (0, 1)).
    double duty = 0.5;
    /// Output level forced while the trap is active.
    bool level = true;
};

class rtn_source final : public source_model {
public:
    using parameters = rtn_parameters;

    /// \param inner  healthy (or further-decorated) source
    /// \param seed   private PRNG seed for dwell sampling
    /// \param params trap parameters
    /// \throws std::invalid_argument for dwell_on < 1 or duty outside (0, 1)
    rtn_source(std::unique_ptr<entropy_source> inner, std::uint64_t seed,
               parameters params = {});

    std::string name() const override;

protected:
    std::uint64_t next_word() override;
    void severity_changed() override;

private:
    xoshiro256ss rng_;
    parameters params_;
    bool active_ = true;          // toggles to healthy on the first word
    std::uint64_t remaining_ = 0; // bits left in the current dwell

    void toggle();
};

/// Markov-chain bias drift: the marginal P[1] follows a lazy random walk
/// with an outward drift, modelling slow operating-point wander (supply
/// or temperature) that a single offline calibration cannot catch.
///
/// The walk state is a shift magnitude on a 1/512 lattice; the stream is
/// perturbed by OR-ing (positive drift) or AND-NOT-ing (negative drift) a
/// Bernoulli mask over the inner bits, so inner correlation structure is
/// preserved while the marginal moves.  Severity scales the applied
/// shift; the walk itself advances regardless (the physics doesn't stop,
/// activation only couples it to the output).
/// Parameters of bias_drift_source.
struct bias_drift_parameters {
    /// Peak |P[1] - 0.5| in 1/512 units (walk bound); <= 256.
    unsigned max_shift_q = 64;
    /// Bits between walk steps; multiple of 64.
    std::uint64_t step_bits = 2048;
    /// Per-step probabilities of moving out / back (rest: stay).
    double p_out = 0.5;
    double p_back = 0.3;
    /// Drift direction: towards ones (true) or zeros (false).
    bool towards_one = true;
};

class bias_drift_source final : public source_model {
public:
    using parameters = bias_drift_parameters;

    /// \throws std::invalid_argument for a zero/unaligned step interval,
    /// max_shift_q > 256 or p_out + p_back > 1
    bias_drift_source(std::unique_ptr<entropy_source> inner,
                      std::uint64_t seed, parameters params = {});

    std::string name() const override;
    /// Current applied shift of P[1] from 0.5 (signed, in [-0.5, 0.5]).
    double current_shift() const;

protected:
    std::uint64_t next_word() override;

private:
    xoshiro256ss rng_;
    parameters params_;
    unsigned walk_q_ = 0;             // magnitude on the 1/512 lattice
    std::uint64_t bits_until_step_ = 0;
};

/// Oscillator lock-in: a fraction of output bits is replaced by a
/// deterministic periodic pattern whose phase advances with the stream,
/// modelling frequency injection pulling the sampled oscillator onto a
/// harmonic (Markettos & Moore) -- the partially locked regime between
/// healthy and the fully periodic `periodic_source`.
///
/// Severity is the lock strength: each output bit is the pattern bit with
/// probability `severity` (quantized to 1/256), the inner bit otherwise.
class lockin_source final : public source_model {
public:
    /// \param pattern injected waveform, repeated cyclically (non-empty);
    /// the default "01" models lock onto half the sampling frequency
    /// \throws std::invalid_argument for an empty pattern
    lockin_source(std::unique_ptr<entropy_source> inner, std::uint64_t seed,
                  bit_sequence pattern = bit_sequence::from_string("01"));

    std::string name() const override;

protected:
    std::uint64_t next_word() override;

private:
    xoshiro256ss rng_;
    std::size_t period_;
    // The pattern's phase advances by 64 bits per word, so the word
    // stream cycles through period / gcd(period, 64) distinct pattern
    // words: packed once at construction, read in stream order.
    std::vector<std::uint64_t> pattern_words_;
    std::size_t pattern_pos_ = 0;
};

/// Stuck-at and bit-dropout faults: each output bit is independently
/// forced to `stuck_value` (a marginal contact shorting the line) with
/// probability severity * stuck_prob, or dropped (the sampler misses the
/// edge and its hold register repeats the previous output bit) with
/// probability severity * dropout_prob.  Dropout wins when both fire.
///
/// Stuck-at moves the marginal; dropout adds serial correlation without
/// moving it -- together they exercise frequency- and run-sensitive tests
/// through one knob.
/// Parameters of fault_source.
struct fault_parameters {
    double stuck_prob = 0.25;   ///< per-bit stuck probability at severity 1
    bool stuck_value = true;    ///< level a stuck bit is forced to
    double dropout_prob = 0.25; ///< per-bit dropout probability at severity 1
};

class fault_source final : public source_model {
public:
    using parameters = fault_parameters;

    /// \throws std::invalid_argument for probabilities outside [0, 1]
    fault_source(std::unique_ptr<entropy_source> inner, std::uint64_t seed,
                 parameters params = {});

    std::string name() const override;

protected:
    std::uint64_t next_word() override;

private:
    xoshiro256ss rng_;
    parameters params_;
    bool last_bit_ = false;
};

/// SRAM-style entropy collapse: as the supply drops, a growing fraction
/// of cells stops metastably resolving and falls back onto a fixed,
/// possibly skewed power-up fingerprint (Yuksel et al., "TuRaN": SRAM
/// read entropy collapses as voltage scales down).
///
/// The fingerprint is a fixed `fingerprint_bits`-long pattern tied to the
/// stream position (cells are address-locked), so a collapsed source is
/// deterministic and periodic; `cell_one_prob` skews the collapsed cells.
/// Severity is the collapsed fraction (times `max_fraction`), which a
/// ramp schedule turns into the supply-ramp experiment.
/// Parameters of entropy_collapse_source.
struct entropy_collapse_parameters {
    /// Fingerprint period in bits; multiple of 64, >= 64.
    std::uint64_t fingerprint_bits = 1024;
    /// P[1] of each fingerprint cell (SRAM skew under low voltage).
    double cell_one_prob = 0.5;
    /// Collapsed fraction at severity 1.
    double max_fraction = 1.0;
};

class entropy_collapse_source final : public source_model {
public:
    using parameters = entropy_collapse_parameters;

    /// \throws std::invalid_argument for an unaligned/zero fingerprint
    /// length or probabilities outside [0, 1]
    entropy_collapse_source(std::unique_ptr<entropy_source> inner,
                            std::uint64_t seed, parameters params = {});

    std::string name() const override;
    /// The device's power-up fingerprint (for experiment introspection).
    const std::vector<std::uint64_t>& fingerprint() const
    {
        return fingerprint_;
    }

protected:
    std::uint64_t next_word() override;

private:
    xoshiro256ss rng_;
    parameters params_;
    std::vector<std::uint64_t> fingerprint_;
    std::size_t fp_word_ = 0;
};

/// Deterministic-substitution attack: an adversary overwrites the stream
/// with a looped replay of a fixed `period_bits`-long pseudo-random block
/// (a captured trace or a canned "random-looking" constant).  The
/// substitute is balanced and locally random -- only its periodicity is
/// wrong, which is exactly what the pattern-sensitive tests exist for;
/// designs whose window is shorter than the period cannot see it (the
/// case for testing long sequences).
///
/// Severity is the fraction of substituted bits (1 = pure replay; the
/// inner source still advances, as the real TRNG keeps free-running).
/// Parameters of substitution_source.
struct substitution_parameters {
    /// Replayed block length in bits; multiple of 64, >= 64.
    std::uint64_t period_bits = 256;
};

class substitution_source final : public source_model {
public:
    using parameters = substitution_parameters;

    /// \throws std::invalid_argument for an unaligned/zero period
    substitution_source(std::unique_ptr<entropy_source> inner,
                        std::uint64_t seed, parameters params = {});

    std::string name() const override;

protected:
    std::uint64_t next_word() override;

private:
    xoshiro256ss rng_;
    parameters params_;
    std::vector<std::uint64_t> block_;
    std::size_t pos_ = 0;
};

} // namespace otf::trng
