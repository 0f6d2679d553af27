// Behavioural entropy-source models: the healthy generator, parametric
// statistical weaknesses, and hard failure modes.
//
// Each model reproduces one defect class the on-the-fly tests are designed
// to catch (Section II-B of the paper): total failure of the source, slow
// degradation through aging, and statistical weaknesses induced by active
// attacks on the operating conditions.
#pragma once

#include "trng/entropy_source.hpp"
#include "trng/xoshiro.hpp"

#include <memory>

namespace otf::trng {

/// Ideal source: independent fair bits from xoshiro256**.
class ideal_source final : public entropy_source {
public:
    /// \brief Seed the generator (any 64-bit value; expanded through
    /// splitmix64 into a full xoshiro256** state).
    /// \param seed experiment seed -- equal seeds give equal streams
    explicit ideal_source(std::uint64_t seed) : rng_(seed) {}
    bool next_bit() override { return rng_.next_bit(); }
    /// Native word generation (one xoshiro draw per 64 bits) -- bit-exact
    /// with the per-bit stream in any interleaving.  The generator runs
    /// on a local copy for the batch: `out` and the member state are both
    /// uint64_t, so writing through `out` would otherwise force the
    /// compiler to reload the state every iteration (may-alias).
    void fill_words(std::uint64_t* out, std::size_t nwords) override
    {
        xoshiro256ss rng = rng_;
        for (std::size_t j = 0; j < nwords; ++j) {
            out[j] = rng.next_bits64();
        }
        rng_ = rng;
    }
    std::string name() const override { return "ideal"; }

private:
    xoshiro256ss rng_;
};

/// Biased source: independent bits with P[1] = p.
///
/// Models supply-voltage manipulation that shifts the sampling threshold.
class biased_source final : public entropy_source {
public:
    /// \brief Build a biased source.
    /// \param seed  experiment seed
    /// \param p_one probability of a 1 bit
    /// \throws std::invalid_argument unless p_one is in [0, 1]
    biased_source(std::uint64_t seed, double p_one);
    bool next_bit() override;
    /// Batched through xoshiro256ss::fill_below, the same integer
    /// threshold as next_bit().  The per-bit lane holds no buffer state,
    /// so this is bit-exact with assembling words from next_bit() -- and
    /// it is the inner source of every device_source in a population run.
    void fill_words(std::uint64_t* out, std::size_t nwords) override;
    std::string name() const override;
    double p_one() const { return p_one_; }

private:
    xoshiro256ss rng_;
    double p_one_;
    std::uint64_t threshold_ = 0; // bernoulli_threshold(p_one_)
};

/// First-order Markov source: P[b_i == b_{i-1}] = persistence.
///
/// persistence > 0.5 produces too few runs (sticky bits, under-sampled
/// oscillator); persistence < 0.5 produces too many (oscillation coupling).
/// Bits are marginally unbiased, so only run- and pattern-sensitive tests
/// can see the defect -- the case for testing many properties at once.
class markov_source final : public entropy_source {
public:
    /// \brief Build a first-order Markov source.
    /// \param seed        experiment seed
    /// \param persistence P[b_i == b_{i-1}]; 0.5 is independent
    /// \throws std::invalid_argument unless persistence is in [0, 1]
    markov_source(std::uint64_t seed, double persistence);
    bool next_bit() override;
    std::string name() const override;
    double persistence() const { return persistence_; }

private:
    xoshiro256ss rng_;
    double persistence_;
    bool last_ = false;
    bool primed_ = false;
};

/// Stuck-at source: total failure, emits a constant value.
///
/// Models a cut signal wire -- the trivial attack from Section II-B.
class stuck_source final : public entropy_source {
public:
    /// \param value the constant level the dead source emits
    explicit stuck_source(bool value) : value_(value) {}
    bool next_bit() override { return value_; }
    std::string name() const override
    {
        return value_ ? "stuck-at-1" : "stuck-at-0";
    }

private:
    bool value_;
};

/// Periodic source: repeats a fixed short pattern.
///
/// Models an oscillator locked to an injected frequency: the output becomes
/// deterministic and periodic while remaining roughly balanced.
class periodic_source final : public entropy_source {
public:
    /// \param pattern the repeated waveform (non-empty)
    /// \throws std::invalid_argument on an empty pattern
    explicit periodic_source(bit_sequence pattern);
    bool next_bit() override;
    std::string name() const override { return "periodic"; }

private:
    bit_sequence pattern_;
    std::size_t pos_ = 0;
};

/// Burst-failure source: ideal bits, but stuck runs of `burst_length`
/// constant bits begin with probability `burst_rate` per bit.
///
/// Models intermittent contact faults and transient environmental upsets.
class burst_failure_source final : public entropy_source {
public:
    /// \brief Build a burst-failure source.
    /// \param seed         experiment seed
    /// \param burst_rate   per-bit probability that a stuck run begins
    /// \param burst_length length of each stuck run in bits (> 0)
    /// \throws std::invalid_argument for a rate outside [0, 1] or a
    /// zero burst length
    burst_failure_source(std::uint64_t seed, double burst_rate,
                         std::size_t burst_length);
    bool next_bit() override;
    std::string name() const override { return "burst-failure"; }

private:
    xoshiro256ss rng_;
    double burst_rate_;
    std::size_t burst_length_;
    std::size_t in_burst_ = 0;
    bool burst_value_ = false;
};

/// Aging source: bias drifts linearly from 0.5 towards `final_bias` over
/// `lifetime_bits` produced bits, then stays there.
///
/// Models long-term degradation; the slow tests on long sequences are the
/// ones that catch it early.
class aging_source final : public entropy_source {
public:
    /// \brief Build an aging source.
    /// \param seed          experiment seed
    /// \param final_bias    P[1] the device ends its life at
    /// \param lifetime_bits bits over which the drift completes (> 0)
    /// \throws std::invalid_argument for a bias outside [0, 1] or a
    /// zero lifetime
    aging_source(std::uint64_t seed, double final_bias,
                 std::uint64_t lifetime_bits);
    bool next_bit() override;
    std::string name() const override { return "aging"; }
    double current_p_one() const;

private:
    xoshiro256ss rng_;
    double final_bias_;
    std::uint64_t lifetime_bits_;
    std::uint64_t produced_ = 0;
};

/// Replays a recorded bit sequence (e.g. a captured TRNG trace), then
/// throws when exhausted.
class replay_source final : public entropy_source {
public:
    /// \param bits the recorded trace; next_bit() throws
    /// std::out_of_range once it is exhausted
    explicit replay_source(bit_sequence bits);
    bool next_bit() override;
    /// Streaming hook: delivers the remaining *full* words of the trace
    /// and then reports end-of-stream (0) instead of throwing, so a
    /// recorded trace plays back as a finite stream that closes cleanly.
    std::size_t fill_words_available(std::uint64_t* out,
                                     std::size_t nwords) override;
    std::string name() const override { return "replay"; }
    std::size_t remaining() const { return bits_.size() - pos_; }

private:
    bit_sequence bits_;
    std::size_t pos_ = 0;
};

} // namespace otf::trng
