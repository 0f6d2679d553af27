#include "trng/sources.hpp"

#include <stdexcept>

namespace otf::trng {

biased_source::biased_source(std::uint64_t seed, double p_one)
    : rng_(seed), p_one_(p_one)
{
    if (!(p_one >= 0.0 && p_one <= 1.0)) {
        throw std::invalid_argument("biased_source: p_one must be in [0, 1]");
    }
    threshold_ = bernoulli_threshold(p_one);
}

bool biased_source::next_bit()
{
    return (rng_.next() >> 11) < threshold_;
}

void biased_source::fill_words(std::uint64_t* out, std::size_t nwords)
{
    rng_.fill_below(threshold_, out, nwords);
}

std::string biased_source::name() const
{
    return "biased(p=" + std::to_string(p_one_) + ")";
}

markov_source::markov_source(std::uint64_t seed, double persistence)
    : rng_(seed), persistence_(persistence)
{
    if (!(persistence >= 0.0 && persistence <= 1.0)) {
        throw std::invalid_argument(
            "markov_source: persistence must be in [0, 1]");
    }
}

bool markov_source::next_bit()
{
    if (!primed_) {
        last_ = rng_.next_bit();
        primed_ = true;
        return last_;
    }
    const bool repeat = rng_.next_double() < persistence_;
    last_ = repeat ? last_ : !last_;
    return last_;
}

std::string markov_source::name() const
{
    return "markov(persistence=" + std::to_string(persistence_) + ")";
}

periodic_source::periodic_source(bit_sequence pattern)
    : pattern_(std::move(pattern))
{
    if (pattern_.empty()) {
        throw std::invalid_argument("periodic_source: empty pattern");
    }
}

bool periodic_source::next_bit()
{
    const bool bit = pattern_[pos_];
    pos_ = (pos_ + 1) % pattern_.size();
    return bit;
}

burst_failure_source::burst_failure_source(std::uint64_t seed,
                                           double burst_rate,
                                           std::size_t burst_length)
    : rng_(seed), burst_rate_(burst_rate), burst_length_(burst_length)
{
    if (!(burst_rate >= 0.0 && burst_rate <= 1.0)) {
        throw std::invalid_argument(
            "burst_failure_source: burst_rate must be in [0, 1]");
    }
    if (burst_length == 0) {
        throw std::invalid_argument(
            "burst_failure_source: burst_length must be > 0");
    }
}

bool burst_failure_source::next_bit()
{
    if (in_burst_ > 0) {
        --in_burst_;
        return burst_value_;
    }
    if (rng_.next_double() < burst_rate_) {
        in_burst_ = burst_length_ - 1;
        burst_value_ = rng_.next_bit();
        return burst_value_;
    }
    return rng_.next_bit();
}

aging_source::aging_source(std::uint64_t seed, double final_bias,
                           std::uint64_t lifetime_bits)
    : rng_(seed), final_bias_(final_bias), lifetime_bits_(lifetime_bits)
{
    if (!(final_bias >= 0.0 && final_bias <= 1.0)) {
        throw std::invalid_argument(
            "aging_source: final_bias must be in [0, 1]");
    }
    if (lifetime_bits == 0) {
        throw std::invalid_argument("aging_source: lifetime must be > 0");
    }
}

double aging_source::current_p_one() const
{
    const double progress = (produced_ >= lifetime_bits_)
        ? 1.0
        : static_cast<double>(produced_)
            / static_cast<double>(lifetime_bits_);
    return 0.5 + (final_bias_ - 0.5) * progress;
}

bool aging_source::next_bit()
{
    const double p = current_p_one();
    ++produced_;
    return rng_.next_double() < p;
}

replay_source::replay_source(bit_sequence bits) : bits_(std::move(bits))
{
}

bool replay_source::next_bit()
{
    if (pos_ >= bits_.size()) {
        throw std::out_of_range("replay_source: recorded trace exhausted");
    }
    return bits_[pos_++];
}

std::size_t replay_source::fill_words_available(std::uint64_t* out,
                                                std::size_t nwords)
{
    // Capped to whole remaining words, the base packing loop cannot hit
    // the out_of_range path -- one copy of the LSB-first convention.
    const std::size_t whole = remaining() / 64;
    const std::size_t n = nwords < whole ? nwords : whole;
    fill_words(out, n);
    return n;
}

} // namespace otf::trng
