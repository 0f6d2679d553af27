#include "trng/device_profile.hpp"

#include "trng/sources.hpp"
#include "trng/xoshiro.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace otf::trng {

namespace {

/// splitmix64 finalizer over a combined (seed, stream) pair -- the
/// standard way to derive independent sub-seeds from one master seed
/// without a shared RNG (and therefore without any cross-device sampling
/// order to get wrong).
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double uniform(xoshiro256ss& rng, double lo, double hi)
{
    return lo + rng.next_double() * (hi - lo);
}

std::uint64_t uniform_window(xoshiro256ss& rng, std::uint64_t lo,
                             std::uint64_t hi)
{
    const double span = static_cast<double>(hi - lo) + 1.0;
    const auto offset =
        static_cast<std::uint64_t>(rng.next_double() * span);
    return lo + std::min<std::uint64_t>(offset, hi - lo);
}

void require(bool ok, const char* what)
{
    if (!ok) {
        throw std::invalid_argument(std::string("population_profile: ")
                                    + what);
    }
}

} // namespace

std::string to_string(device_kind kind)
{
    switch (kind) {
    case device_kind::healthy:
        return "healthy";
    case device_kind::rtn:
        return "rtn";
    case device_kind::bias_drift:
        return "bias-drift";
    case device_kind::lock_in:
        return "lock-in";
    case device_kind::fault:
        return "fault";
    case device_kind::entropy_collapse:
        return "entropy-collapse";
    case device_kind::substitution:
        return "substitution";
    }
    return "unknown";
}

void population_profile::validate() const
{
    require(attacked_fraction >= 0.0 && attacked_fraction <= 1.0,
            "attacked_fraction must be in [0, 1]");
    double weight_sum = 0.0;
    for (const double w : model_weights) {
        require(w >= 0.0, "model weights must be non-negative");
        weight_sum += w;
    }
    require(weight_sum > 0.0, "model weights must have a positive sum");
    require(healthy_bias_half_range >= 0.0
                && healthy_bias_half_range < 0.5,
            "healthy_bias_half_range must be in [0, 0.5)");
    require(min_peak_severity >= 0.0 && max_peak_severity <= 1.0
                && min_peak_severity <= max_peak_severity,
            "peak severity range must satisfy 0 <= min <= max <= 1");
    require(onset_min_window <= onset_max_window,
            "onset window range must satisfy min <= max");
    require(churn_fraction >= 0.0 && churn_fraction <= 1.0,
            "churn_fraction must be in [0, 1]");
    require(churn_min_window <= churn_max_window,
            "churn window range must satisfy min <= max");
    require(rtn_min_duty > 0.0 && rtn_max_duty < 1.0
                && rtn_min_duty <= rtn_max_duty,
            "RTN duty range must satisfy 0 < min <= max < 1");
    require(collapse_min_fraction >= 0.0 && collapse_max_fraction <= 1.0
                && collapse_min_fraction <= collapse_max_fraction,
            "collapse fraction range must satisfy 0 <= min <= max <= 1");
}

device_profile sample_device(const population_profile& profile,
                             std::uint64_t master_seed,
                             std::uint32_t device)
{
    profile.validate();
    // One private RNG per device, keyed by (master_seed, device) only.
    // Every field below is drawn unconditionally and in a fixed order, so
    // the stream position never depends on which kind the device gets --
    // adding a branch can never silently reshuffle another field.
    xoshiro256ss rng(mix(master_seed, device));

    device_profile d;
    d.device = device;
    d.seed = rng.next();

    const bool attacked = rng.next_double() < profile.attacked_fraction;
    const double kind_draw = rng.next_double();
    d.p_one = 0.5
        + uniform(rng, -profile.healthy_bias_half_range,
                  profile.healthy_bias_half_range);
    d.peak_severity = uniform(rng, profile.min_peak_severity,
                              profile.max_peak_severity);
    d.onset_window = uniform_window(rng, profile.onset_min_window,
                                    profile.onset_max_window);
    const bool churn_draw = rng.next_double() < profile.churn_fraction;
    d.churn_window = uniform_window(rng, profile.churn_min_window,
                                    profile.churn_max_window);
    d.churn_p_one = 0.5
        + uniform(rng, -profile.healthy_bias_half_range,
                  profile.healthy_bias_half_range);
    d.rtn_duty = uniform(rng, profile.rtn_min_duty, profile.rtn_max_duty);
    d.collapse_fraction = uniform(rng, profile.collapse_min_fraction,
                                  profile.collapse_max_fraction);
    // Substitution block length: 128/256/512 bits, the regime where the
    // replay is shorter than or comparable to typical windows.
    const auto period_pick = std::min<unsigned>(
        static_cast<unsigned>(rng.next_double() * 3.0), 2u);
    d.substitution_period_bits = std::uint64_t{128} << period_pick;

    if (attacked) {
        double weight_sum = 0.0;
        for (const double w : profile.model_weights) {
            weight_sum += w;
        }
        double mark = kind_draw * weight_sum;
        std::size_t pick = 0;
        for (; pick + 1 < attacked_kind_count; ++pick) {
            if (mark < profile.model_weights[pick]) {
                break;
            }
            mark -= profile.model_weights[pick];
        }
        // Skip zero-weight kinds the cursor may have landed on exactly.
        while (profile.model_weights[pick] == 0.0
               && pick + 1 < attacked_kind_count) {
            ++pick;
        }
        d.kind = static_cast<device_kind>(pick + 1);
    } else {
        d.kind = device_kind::healthy;
        d.churns = churn_draw;
    }
    return d;
}

device_source::device_source(device_profile profile,
                             std::uint64_t window_bits)
    : profile_(profile)
{
    if (window_bits == 0 || window_bits % 64 != 0) {
        throw std::invalid_argument(
            "device_source: window length must be a positive multiple of "
            "64 bits so transitions land on word boundaries");
    }
    const std::uint64_t words_per_window = window_bits / 64;
    onset_word_ = profile_.onset_window * words_per_window;
    churn_word_ = profile_.churn_window * words_per_window;

    auto inner = std::make_unique<biased_source>(mix(profile_.seed, 1),
                                                 profile_.p_one);
    const std::uint64_t model_seed = mix(profile_.seed, 2);
    std::unique_ptr<source_model> model;
    switch (profile_.kind) {
    case device_kind::healthy:
        break;
    case device_kind::rtn: {
        rtn_parameters p;
        p.duty = std::clamp(profile_.rtn_duty, 0.01, 0.99);
        model = std::make_unique<rtn_source>(std::move(inner), model_seed,
                                             p);
        break;
    }
    case device_kind::bias_drift:
        model = std::make_unique<bias_drift_source>(std::move(inner),
                                                    model_seed);
        break;
    case device_kind::lock_in:
        model = std::make_unique<lockin_source>(std::move(inner),
                                                model_seed);
        break;
    case device_kind::fault:
        model = std::make_unique<fault_source>(std::move(inner),
                                               model_seed);
        break;
    case device_kind::entropy_collapse: {
        entropy_collapse_parameters p;
        // Skewed power-up fingerprint (the SRAM cells' low-voltage
        // preference), with the collapsed fraction drawn per device.
        p.cell_one_prob = 0.6;
        p.max_fraction = profile_.collapse_fraction;
        model = std::make_unique<entropy_collapse_source>(
            std::move(inner), model_seed, p);
        break;
    }
    case device_kind::substitution: {
        substitution_parameters p;
        p.period_bits = profile_.substitution_period_bits;
        model = std::make_unique<substitution_source>(std::move(inner),
                                                      model_seed, p);
        break;
    }
    }
    if (model) {
        dial_ = model.get();
        dial_->set_severity(0.0); // dormant until the onset window
        chain_ = std::move(model);
    } else {
        chain_ = std::move(inner);
    }
}

void device_source::transition_at(std::uint64_t word_index)
{
    if (dial_ != nullptr && word_index == onset_word_) {
        dial_->set_severity(profile_.peak_severity);
    }
    if (profile_.churns && word_index == churn_word_) {
        // Fleet turnover: the unit is swapped for a fresh healthy device
        // with its own seed and bias point.
        chain_ = std::make_unique<biased_source>(mix(profile_.seed, 3),
                                                 profile_.churn_p_one);
    }
}

std::uint64_t device_source::next_word()
{
    transition_at(words_produced_);
    ++words_produced_;
    std::uint64_t w = 0;
    chain_->fill_words(&w, 1);
    return w;
}

bool device_source::next_bit()
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

void device_source::fill_words(std::uint64_t* out, std::size_t nwords)
{
    for (std::size_t j = 0; j < nwords; ++j) {
        out[j] = next_word();
    }
    if (out_left_ == 0 || nwords == 0) {
        return;
    }
    // Same splice as source_model::fill_words: the buffered bits lead
    // every output word (out_left_ in [1, 63] here).
    const unsigned have = out_left_;
    std::uint64_t carry = out_buf_;
    for (std::size_t j = 0; j < nwords; ++j) {
        const std::uint64_t fresh = out[j];
        out[j] = carry | (fresh << have);
        carry = fresh >> (64 - have);
    }
    out_buf_ = carry;
}

std::string device_source::name() const
{
    return "device:" + to_string(profile_.kind);
}

std::unique_ptr<device_source> make_device_source(
    const device_profile& profile, std::uint64_t window_bits)
{
    return std::make_unique<device_source>(profile, window_bits);
}

} // namespace otf::trng
