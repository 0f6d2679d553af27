// Seeded per-device variation for population-scale runs.
//
// One testing block guards one TRNG; the fleet-of-fleets in
// core/population.hpp guards thousands, and measurements of real devices
// (TuRaN's SRAM arrays, RTN-dominated fully-integrated TRNGs) show that
// per-device and per-condition variation is the norm: no two devices share
// a bias point, trap duty cycle, or collapse voltage, and attacks start at
// different times on different units.  This header samples that
// heterogeneity deterministically.
//
// `sample_device(profile, master_seed, device)` is a *pure function* of
// its arguments: the per-device RNG is seeded from a splitmix64-style mix
// of (master_seed, device), every parameter is drawn in a fixed order
// regardless of which branch the device lands in, and nothing depends on
// sampling order across devices.  The same master seed therefore yields
// the same population on any shard layout or thread count -- the property
// the population layer's `same_counters` determinism guarantee rests on.
//
// `device_source` turns a sampled profile into a runnable entropy source:
// a per-device-biased healthy stream, optionally wrapped in one of the six
// trng::source_model attack/degradation decorators whose severity is
// dialed from 0 (dormant) to the device's sampled peak at its sampled
// onset window.  Healthy devices may instead *churn*: the unit is swapped
// for a fresh one (new seed, new bias point) mid-run, modelling fleet
// turnover.  All transitions land on 64-bit word boundaries and both lanes
// apply them before the word they are scheduled for: next_bit() draws one
// chain word at a time, fill_words() hands the chain each run of words
// between two transitions in one call, so per-bit and word lanes stay
// bit-exact (the source_model contract).
#pragma once

#include "trng/entropy_source.hpp"
#include "trng/source_model.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <string>

namespace otf::trng {

/// Which failure/attack model (if any) a device carries.  Order matches
/// population_profile::model_weights.
enum class device_kind : std::uint8_t {
    healthy = 0,
    rtn,
    bias_drift,
    lock_in,
    fault,
    entropy_collapse,
    substitution,
};

/// Number of attacked kinds (everything except healthy).
inline constexpr std::size_t device_kind_count = 7;
inline constexpr std::size_t attacked_kind_count = 6;

std::string to_string(device_kind kind);

/// Distributions the population is drawn from.  Defaults describe a
/// stressed-but-plausible fleet: a quarter of devices under attack or
/// degrading, mild manufacturing spread on the healthy bias point, and a
/// few percent of units replaced mid-run.
struct population_profile {
    /// Fraction of devices carrying one of the six attack models.
    double attacked_fraction = 0.25;
    /// Relative weights of the six attacked kinds, in device_kind order
    /// (rtn, bias_drift, lock_in, fault, entropy_collapse, substitution).
    /// Need not sum to 1; must be non-negative with a positive sum.
    std::array<double, attacked_kind_count> model_weights = {1.0, 1.0, 1.0,
                                                            1.0, 1.0, 1.0};
    /// Healthy bias point: P[1] uniform in 0.5 +/- this half-range.
    double healthy_bias_half_range = 0.01;
    /// Attack peak severity: uniform in [min, max] (both in [0, 1]).
    double min_peak_severity = 0.5;
    double max_peak_severity = 1.0;
    /// Attack onset: uniform integer window index in [min, max]; the
    /// model is dormant (severity 0) before its onset window.
    std::uint64_t onset_min_window = 0;
    std::uint64_t onset_max_window = 8;
    /// Fraction of *healthy* devices replaced mid-run (fleet turnover).
    double churn_fraction = 0.05;
    /// Replacement instant: uniform integer window index in [min, max].
    std::uint64_t churn_min_window = 1;
    std::uint64_t churn_max_window = 8;
    /// RTN trap duty cycle at peak severity: uniform in [min, max],
    /// clamped inside (0, 1) as rtn_source requires.
    double rtn_min_duty = 0.2;
    double rtn_max_duty = 0.8;
    /// Collapsed cell fraction at peak severity: uniform in [min, max].
    double collapse_min_fraction = 0.5;
    double collapse_max_fraction = 1.0;

    /// \throws std::invalid_argument on out-of-range fields (fractions
    /// outside [0, 1], inverted min/max pairs, non-positive weight sum)
    void validate() const;
};

/// One device's sampled parameters -- everything needed to rebuild its
/// exact bit stream, including the churn replacement.
struct device_profile {
    std::uint32_t device = 0;
    device_kind kind = device_kind::healthy;
    /// Per-device seed; sub-seeds for the inner stream, the model's
    /// private PRNG and the churn replacement derive from it.
    std::uint64_t seed = 0;
    /// Healthy bias point P[1].
    double p_one = 0.5;
    /// Severity the model is dialed to at onset (attacked kinds).
    double peak_severity = 1.0;
    /// Window index at which the attack activates.
    std::uint64_t onset_window = 0;
    /// Healthy devices only: replaced by a fresh unit mid-run?
    bool churns = false;
    std::uint64_t churn_window = 0;
    /// Replacement unit's bias point.
    double churn_p_one = 0.5;
    /// Kind-specific draws (sampled for every device so the draw count
    /// is fixed; used only by the matching kind).
    double rtn_duty = 0.5;
    double collapse_fraction = 1.0;
    std::uint64_t substitution_period_bits = 256;

    bool attacked() const { return kind != device_kind::healthy; }
};

/// \brief Sample one device's profile.  Pure function of its arguments:
/// equal (profile, master_seed, device) triples give equal results on any
/// platform, shard layout or call order.
/// \param profile     population distributions (must validate())
/// \param master_seed the experiment's master seed
/// \param device      device index within the population
device_profile sample_device(const population_profile& profile,
                             std::uint64_t master_seed,
                             std::uint32_t device);

/// Runnable per-device source: biased healthy stream, plus (for attacked
/// kinds) a dormant source_model dialed to the profile's peak severity at
/// its onset window, or (for churning healthy devices) a mid-run swap to
/// a fresh unit.  Transitions happen at window boundaries, which are word
/// boundaries, so both lanes stay bit-exact.
class device_source final : public entropy_source {
public:
    /// \param profile     the sampled device (see sample_device)
    /// \param window_bits the design's window length n in bits; must be a
    ///        positive multiple of 64 so windows land on word boundaries
    /// \throws std::invalid_argument on an unaligned window length
    device_source(device_profile profile, std::uint64_t window_bits);

    bool next_bit() override;
    void fill_words(std::uint64_t* out, std::size_t nwords) override;
    std::string name() const override;

    const device_profile& profile() const { return profile_; }

private:
    /// The next output word for the bit lane: transitions first, then
    /// one chain word.
    std::uint64_t next_word();
    /// Apply any transition scheduled for the word about to be produced.
    void transition_at(std::uint64_t word_index);

    device_profile profile_;
    std::unique_ptr<entropy_source> chain_;
    source_model* dial_ = nullptr; // non-null iff profile_.attacked()
    std::uint64_t onset_word_ = 0;
    std::uint64_t churn_word_ = 0;
    std::uint64_t words_produced_ = 0;
    // Output buffer: next_bit drains, fill_words splices (the
    // source_model lane contract, replicated so transitions stay on word
    // boundaries in any bit/word interleaving).
    std::uint64_t out_buf_ = 0;
    unsigned out_left_ = 0;
};

/// \brief Convenience factory used by the population layer's
/// fleet_monitor source hook.
std::unique_ptr<device_source> make_device_source(
    const device_profile& profile, std::uint64_t window_bits);

} // namespace otf::trng
