#include "trng/source_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace otf::trng {

namespace {

/// Dwell sentinel: "stay in this state forever" (severity 0 regimes).
constexpr std::uint64_t kForever = std::numeric_limits<std::uint64_t>::max();

using bits::low_mask;

/// std::round(p * 256) clamped to [0, 256].  Models quantize once
/// per generated word, so the rounding is done inline instead of through
/// a libm call: x - n is exact for 1 <= n <= x (and trivially for n = 0).
unsigned quantize(double p)
{
    const double x = p * 256.0;
    if (!(x > 0.0)) {
        return 0;
    }
    if (x >= 256.0) {
        return 256;
    }
    const auto n = static_cast<unsigned>(x);
    return x - n >= 0.5 ? n + 1 : n;
}

/// Resolve the dropout sample-and-hold chain of one word without the
/// bit-serial loop: every dropped bit repeats the nearest non-dropped
/// *output* bit below it (`prev` = the last output bit of the previous
/// word, for holes at the bottom).  Parallel-prefix doubling with
/// ascending shifts: after shifts 1..s, every hole whose nearest resolved
/// bit lies within 2s-1 positions carries that bit's value, so shift 2s
/// can copy across gaps of up to 4s-1 -- gaps up to 63 are closed by
/// shift 32.
std::uint64_t dropout_fill(std::uint64_t base, std::uint64_t dropped,
                           bool prev)
{
    std::uint64_t known = ~dropped;
    std::uint64_t v = base & known;
    const unsigned lead = known == 0
        ? 64u
        : static_cast<unsigned>(std::countr_zero(known));
    // Holes below the first resolved bit repeat the carried-in bit.
    if (prev) {
        v |= low_mask(lead);
    }
    known |= low_mask(lead);
    for (unsigned s = 1; s < 64 && known != ~std::uint64_t{0}; s <<= 1) {
        v |= (v << s) & (known << s) & ~known;
        known |= known << s;
    }
    return v;
}

std::string format_param(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

} // namespace

std::uint64_t geometric_dwell(xoshiro256ss& rng, double mean_bits)
{
    if (!(mean_bits >= 1.0)) {
        throw std::invalid_argument(
            "geometric_dwell: mean must be >= 1 bit");
    }
    const double u = rng.next_double();
    const double sample = -std::log1p(-u) * mean_bits;
    if (!(sample < 1.0e15)) { // overflow / u == 1 guard
        return static_cast<std::uint64_t>(1.0e15);
    }
    return 1 + static_cast<std::uint64_t>(sample);
}

source_model::source_model(std::unique_ptr<entropy_source> inner)
    : inner_(std::move(inner))
{
    if (!inner_) {
        throw std::invalid_argument("source_model: null inner source");
    }
}

bool source_model::next_bit()
{
    if (out_left_ == 0) {
        out_buf_ = next_word();
        out_left_ = 64;
    }
    const bool bit = (out_buf_ & 1u) != 0;
    out_buf_ >>= 1;
    --out_left_;
    return bit;
}

void source_model::fill_words(std::uint64_t* out, std::size_t nwords)
{
    for (std::size_t j = 0; j < nwords; ++j) {
        out[j] = next_word();
    }
    if (out_left_ == 0 || nwords == 0) {
        return;
    }
    // Splice: `out_left_` buffered bits lead every output word, the rest
    // comes from the freshly generated words already in `out`
    // (xoshiro256ss::next_bits64 generalized to a run of words;
    // out_left_ is in [1, 63] here).
    const unsigned have = out_left_;
    std::uint64_t carry = out_buf_;
    for (std::size_t j = 0; j < nwords; ++j) {
        const std::uint64_t fresh = out[j];
        out[j] = carry | (fresh << have);
        carry = fresh >> (64 - have);
    }
    out_buf_ = carry;
    // out_left_ unchanged: each word consumed `have` carried bits and
    // left `have` fresh ones behind.
}

void source_model::set_severity(double s)
{
    if (!(s >= 0.0 && s <= 1.0)) {
        throw std::invalid_argument(
            "source_model: severity must be in [0, 1]");
    }
    const bool changed = s != severity_;
    severity_ = s;
    if (changed) {
        severity_changed();
    }
}

unsigned source_model::severity_q() const
{
    return quantize(severity_);
}

std::uint64_t source_model::inner_word()
{
    if (in_left_ == 0) {
        std::uint64_t w;
        inner_->fill_words(&w, 1);
        return w;
    }
    return take_inner(64);
}

std::uint64_t source_model::take_inner(unsigned k)
{
    if (k == 0 || k > 64) {
        throw std::invalid_argument("source_model: take_inner needs 1..64");
    }
    if (in_left_ == 0) {
        inner_->fill_words(&in_buf_, 1);
        in_left_ = 64;
    }
    if (k <= in_left_) {
        const std::uint64_t bits = in_buf_ & low_mask(k);
        in_buf_ = k >= 64 ? 0 : in_buf_ >> k;
        in_left_ -= k;
        return bits;
    }
    // Splice the remaining buffered bits with the low bits of a fresh
    // inner word (k > in_left_ >= 1, so need is in [1, 63]).
    const unsigned have = in_left_;
    const unsigned need = k - have;
    const std::uint64_t low = in_buf_;
    std::uint64_t fresh;
    inner_->fill_words(&fresh, 1);
    in_buf_ = fresh >> need;
    in_left_ = 64 - need;
    return low | ((fresh & low_mask(need)) << have);
}

// -- rtn_source -------------------------------------------------------------

rtn_source::rtn_source(std::unique_ptr<entropy_source> inner,
                       std::uint64_t seed, parameters params)
    : source_model(std::move(inner)), rng_(seed), params_(params)
{
    if (!(params.dwell_on >= 1.0)) {
        throw std::invalid_argument("rtn_source: dwell_on must be >= 1");
    }
    if (!(params.duty > 0.0 && params.duty < 1.0)) {
        throw std::invalid_argument("rtn_source: duty must be in (0, 1)");
    }
    // The healthy-dwell mean is longest at full severity; reject the
    // combinations whose mean would drop below one bit there instead of
    // letting geometric_dwell throw mid-stream.
    if (params.dwell_on * (1.0 - params.duty) / params.duty < 1.0) {
        throw std::invalid_argument(
            "rtn_source: dwell_on * (1 - duty) / duty must be >= 1 "
            "(healthy dwell shorter than one bit)");
    }
    // active_ = true with an expired dwell: the first word toggles into a
    // freshly sampled healthy stretch.
}

void rtn_source::toggle()
{
    active_ = !active_;
    if (active_) {
        remaining_ = geometric_dwell(rng_, params_.dwell_on);
        return;
    }
    const double duty = severity() * params_.duty;
    if (duty <= 0.0) {
        remaining_ = kForever;
        return;
    }
    remaining_ = geometric_dwell(rng_,
                                 params_.dwell_on * (1.0 - duty) / duty);
}

void rtn_source::severity_changed()
{
    // Re-arm the healthy dwell so the trap responds to the new operating
    // point instead of waiting out a stale (possibly infinite) dwell.  An
    // in-progress burst keeps its sampled length.
    if (!active_) {
        const double duty = severity() * params_.duty;
        remaining_ = duty <= 0.0
            ? kForever
            : geometric_dwell(rng_,
                              params_.dwell_on * (1.0 - duty) / duty);
    }
}

std::uint64_t rtn_source::next_word()
{
    std::uint64_t w = 0;
    unsigned filled = 0;
    while (filled < 64) {
        if (remaining_ == 0) {
            toggle();
        }
        const unsigned chunk = static_cast<unsigned>(
            std::min<std::uint64_t>(remaining_, 64 - filled));
        if (active_) {
            if (params_.level) {
                w |= low_mask(chunk) << filled;
            }
            // The comparator output is pinned: inner bits are not sampled
            // during the burst (both lanes agree on this by construction).
        } else {
            w |= take_inner(chunk) << filled;
        }
        filled += chunk;
        if (remaining_ != kForever) {
            remaining_ -= chunk;
        }
    }
    return w;
}

std::string rtn_source::name() const
{
    return "rtn(dwell=" + format_param(params_.dwell_on)
        + ",duty=" + format_param(params_.duty)
        + ",level=" + (params_.level ? "1" : "0") + ")<" + inner().name()
        + ">";
}

// -- bias_drift_source ------------------------------------------------------

bias_drift_source::bias_drift_source(std::unique_ptr<entropy_source> inner,
                                     std::uint64_t seed, parameters params)
    : source_model(std::move(inner)), rng_(seed), params_(params)
{
    if (params.step_bits == 0 || params.step_bits % 64 != 0) {
        throw std::invalid_argument(
            "bias_drift_source: step_bits must be a non-zero multiple "
            "of 64");
    }
    if (params.max_shift_q > 256) {
        throw std::invalid_argument(
            "bias_drift_source: max_shift_q must be <= 256");
    }
    if (!(params.p_out >= 0.0 && params.p_back >= 0.0
          && params.p_out + params.p_back <= 1.0)) {
        throw std::invalid_argument(
            "bias_drift_source: need p_out, p_back >= 0 and "
            "p_out + p_back <= 1");
    }
}

double bias_drift_source::current_shift() const
{
    const double magnitude =
        severity() * static_cast<double>(walk_q_) / 512.0;
    return params_.towards_one ? magnitude : -magnitude;
}

std::uint64_t bias_drift_source::next_word()
{
    if (bits_until_step_ == 0) {
        const double u = rng_.next_double();
        if (u < params_.p_out) {
            if (walk_q_ < params_.max_shift_q) {
                ++walk_q_;
            }
        } else if (u < params_.p_out + params_.p_back) {
            if (walk_q_ > 0) {
                --walk_q_;
            }
        }
        bits_until_step_ = params_.step_bits;
    }
    bits_until_step_ -= 64;
    const std::uint64_t in = inner_word();
    // OR-ing a Bernoulli(q/256) mask lifts P[1] by q/512 on an unbiased
    // stream (AND-NOT lowers it), leaving inner correlations in place.
    const unsigned q =
        quantize(severity() * static_cast<double>(walk_q_) / 256.0);
    if (q == 0) {
        return in;
    }
    const std::uint64_t m = bernoulli_mask(rng_, q);
    return params_.towards_one ? (in | m) : (in & ~m);
}

std::string bias_drift_source::name() const
{
    return "bias-drift(max=" + std::to_string(params_.max_shift_q)
        + "/512,step=" + std::to_string(params_.step_bits)
        + (params_.towards_one ? ",up" : ",down") + ")<" + inner().name()
        + ">";
}

// -- lockin_source ----------------------------------------------------------

lockin_source::lockin_source(std::unique_ptr<entropy_source> inner,
                             std::uint64_t seed, bit_sequence pattern)
    : source_model(std::move(inner)), rng_(seed), period_(pattern.size())
{
    if (pattern.empty()) {
        throw std::invalid_argument("lockin_source: empty pattern");
    }
    // Word c of the stream starts at pattern phase 64c mod period, which
    // repeats after period / gcd(period, 64) words.
    const std::size_t cycle =
        period_ / std::gcd<std::size_t>(period_, 64);
    pattern_words_.resize(cycle);
    for (std::size_t c = 0; c < cycle; ++c) {
        const std::size_t phase = (64 * c) % period_;
        std::uint64_t pat = 0;
        for (unsigned i = 0; i < 64; ++i) {
            pat |= static_cast<std::uint64_t>(
                       pattern[(phase + i) % period_] ? 1 : 0)
                << i;
        }
        pattern_words_[c] = pat;
    }
}

std::uint64_t lockin_source::next_word()
{
    // The injected waveform's phase advances with the stream whether or
    // not a given bit locks -- the oscillator keeps running.
    const std::uint64_t pat = pattern_words_[pattern_pos_];
    if (++pattern_pos_ == pattern_words_.size()) {
        pattern_pos_ = 0;
    }
    const std::uint64_t in = inner_word();
    const unsigned q = severity_q();
    if (q == 0) {
        return in;
    }
    const std::uint64_t m = bernoulli_mask(rng_, q);
    return (m & pat) | (~m & in);
}

std::string lockin_source::name() const
{
    return "lockin(period=" + std::to_string(period_) + ")<"
        + inner().name() + ">";
}

// -- fault_source -----------------------------------------------------------

fault_source::fault_source(std::unique_ptr<entropy_source> inner,
                           std::uint64_t seed, parameters params)
    : source_model(std::move(inner)), rng_(seed), params_(params)
{
    if (!(params.stuck_prob >= 0.0 && params.stuck_prob <= 1.0)
        || !(params.dropout_prob >= 0.0 && params.dropout_prob <= 1.0)) {
        throw std::invalid_argument(
            "fault_source: probabilities must be in [0, 1]");
    }
}

std::uint64_t fault_source::next_word()
{
    const unsigned qs = quantize(severity() * params_.stuck_prob);
    const unsigned qd = quantize(severity() * params_.dropout_prob);
    const std::uint64_t in = inner_word();
    const std::uint64_t s = bernoulli_mask(rng_, qs);
    const std::uint64_t d = bernoulli_mask(rng_, qd);
    const std::uint64_t stuck = params_.stuck_value ? ~std::uint64_t{0} : 0;
    std::uint64_t w = (s & stuck) | (~s & in);
    if (d != 0) {
        // Dropout repeats the previous *output* bit.
        w = dropout_fill(w, d, last_bit_);
    }
    last_bit_ = (w >> 63) != 0;
    return w;
}

std::string fault_source::name() const
{
    return "fault(stuck=" + format_param(params_.stuck_prob) + "@"
        + (params_.stuck_value ? "1" : "0")
        + ",dropout=" + format_param(params_.dropout_prob) + ")<"
        + inner().name() + ">";
}

// -- entropy_collapse_source ------------------------------------------------

entropy_collapse_source::entropy_collapse_source(
    std::unique_ptr<entropy_source> inner, std::uint64_t seed,
    parameters params)
    : source_model(std::move(inner)), rng_(seed), params_(params)
{
    if (params.fingerprint_bits == 0 || params.fingerprint_bits % 64 != 0) {
        throw std::invalid_argument(
            "entropy_collapse_source: fingerprint_bits must be a "
            "non-zero multiple of 64");
    }
    if (!(params.cell_one_prob >= 0.0 && params.cell_one_prob <= 1.0)
        || !(params.max_fraction >= 0.0 && params.max_fraction <= 1.0)) {
        throw std::invalid_argument(
            "entropy_collapse_source: probabilities must be in [0, 1]");
    }
    // The power-up fingerprint is a fixed property of the simulated
    // device: sampled once at construction from the model's own PRNG.
    fingerprint_.resize(
        static_cast<std::size_t>(params.fingerprint_bits / 64));
    for (std::uint64_t& word : fingerprint_) {
        word = 0;
        for (unsigned i = 0; i < 64; ++i) {
            if (rng_.next_double() < params.cell_one_prob) {
                word |= std::uint64_t{1} << i;
            }
        }
    }
}

std::uint64_t entropy_collapse_source::next_word()
{
    // Cells are address-locked: the fingerprint word is indexed by stream
    // position, independent of which bits actually collapsed.
    const std::uint64_t fp = fingerprint_[fp_word_];
    if (++fp_word_ == fingerprint_.size()) {
        fp_word_ = 0;
    }
    const std::uint64_t in = inner_word();
    const unsigned q = quantize(severity() * params_.max_fraction);
    if (q == 0) {
        return in;
    }
    const std::uint64_t m = bernoulli_mask(rng_, q);
    return (m & fp) | (~m & in);
}

std::string entropy_collapse_source::name() const
{
    return "sram-collapse(period=" + std::to_string(params_.fingerprint_bits)
        + ",skew=" + format_param(params_.cell_one_prob) + ")<"
        + inner().name() + ">";
}

// -- substitution_source ----------------------------------------------------

substitution_source::substitution_source(
    std::unique_ptr<entropy_source> inner, std::uint64_t seed,
    parameters params)
    : source_model(std::move(inner)), rng_(seed), params_(params)
{
    if (params.period_bits == 0 || params.period_bits % 64 != 0) {
        throw std::invalid_argument(
            "substitution_source: period_bits must be a non-zero "
            "multiple of 64");
    }
    block_.resize(static_cast<std::size_t>(params.period_bits / 64));
    for (std::uint64_t& word : block_) {
        word = rng_.next();
    }
}

std::uint64_t substitution_source::next_word()
{
    const std::uint64_t sub = block_[pos_];
    if (++pos_ == block_.size()) {
        pos_ = 0;
    }
    // The true source keeps free-running underneath the splice.
    const std::uint64_t in = inner_word();
    const unsigned q = severity_q();
    if (q == 0) {
        return in;
    }
    const std::uint64_t m = bernoulli_mask(rng_, q);
    return (m & sub) | (~m & in);
}

std::string substitution_source::name() const
{
    return "substitution(period=" + std::to_string(params_.period_bits)
        + ")<" + inner().name() + ">";
}

} // namespace otf::trng
