// SP 800-90B continuous health tests as hardware engines.
//
// The paper's second normative reference (NIST draft SP 800-90B,
// "Recommendation for the entropy sources used for random bit generation")
// "also requires on-the-fly tests (health tests) for random number
// generators".  The two tests that standard later fixed -- the Repetition
// Count Test and the Adaptive Proportion Test -- are precisely the kind of
// hardware the paper's platform hosts: a counter and a comparator each,
// updating once per bit.  They complement the NIST-battery windows: the
// RCT catches a total failure within tens of bits instead of waiting for
// the 2^16-bit window verdict.
//
// Unlike the paper's split tests these are specified with an immediate
// alarm (the standard demands it), so each engine latches a sticky alarm
// flag *and* exposes its counters through the register map -- software
// can cross-check the numeric values, preserving the platform's
// fault-attack argument.
#pragma once

#include "hw/engine.hpp"
#include "rtl/counter.hpp"
#include "rtl/registers.hpp"

#include <cstdint>

namespace otf::hw {

/// 4.4.1 Repetition Count Test: alarm when the same value repeats
/// `cutoff` times in a row.  For a binary source of full entropy and
/// false-alarm rate 2^-20 the cutoff is 21 (1 + 20/H with H = 1).
class repetition_count_hw final : public engine {
public:
    /// \param cutoff alarm threshold (see core::rct_cutoff), at least 2
    repetition_count_hw(unsigned cutoff);

    void consume(bool bit, std::uint64_t bit_index) override;
    /// \brief Span kernel: iterates each word's maximal equal-bit runs
    /// with count-trailing tricks instead of stepping per bit, with all
    /// state (run, longest, seam flip-flops, alarm) hoisted into locals
    /// and one commit per span.  The alarm is checked against each run's
    /// final length, which is equivalent to the per-bit check because
    /// runs only grow.
    void consume_span(const std::uint64_t* words, std::size_t nbits,
                      std::uint64_t bit_index) override;
    void add_registers(register_map& map) const override;
    void read_registers(std::uint64_t* out) const override;

    bool alarm() const { return alarm_; }
    std::uint64_t current_run() const { return run_.value(); }
    std::uint64_t longest_run() const
    {
        return static_cast<std::uint64_t>(longest_.value());
    }
    unsigned cutoff() const { return cutoff_; }

    /// Clear the sticky alarm (operator intervention; the standard
    /// requires the alarm to persist until handled).
    void clear_alarm() { alarm_ = false; }

protected:
    rtl::resources self_cost() const override;
    void self_reset() override
    {
        alarm_ = false;
        prev_ = false;
        primed_ = false;
    }

private:
    unsigned cutoff_;
    rtl::saturating_counter run_;
    rtl::max_tracker longest_;
    bool alarm_ = false;
    bool prev_ = false;
    bool primed_ = false;
};

/// 4.4.2 Adaptive Proportion Test: at the start of each `window`-bit
/// window (a power of two -- sharing trick 2 applies) the first bit is
/// latched; alarm when it reoccurs `cutoff` or more times within the
/// window.
class adaptive_proportion_hw final : public engine {
public:
    /// \param log2_window window-length exponent, in [4, 16]
    /// \param cutoff      alarm threshold (see core::apt_cutoff); must
    ///                    fit inside the window
    adaptive_proportion_hw(unsigned log2_window, unsigned cutoff);

    void consume(bool bit, std::uint64_t bit_index) override;
    /// \brief Span kernel: one bits::range_popcount per window-bounded
    /// segment of the span, at any alignment.  The occurrence count is
    /// monotone within a window, so checking the cutoff at segment ends
    /// is equivalent to the per-bit check.
    void consume_span(const std::uint64_t* words, std::size_t nbits,
                      std::uint64_t bit_index) override;
    void add_registers(register_map& map) const override;
    void read_registers(std::uint64_t* out) const override;

    bool alarm() const { return alarm_; }
    std::uint64_t current_count() const { return occurrences_.value(); }
    unsigned cutoff() const { return cutoff_; }
    unsigned log2_window() const { return log2_window_; }
    void clear_alarm() { alarm_ = false; }

protected:
    rtl::resources self_cost() const override;
    void self_reset() override
    {
        alarm_ = false;
        reference_ = false;
    }

private:
    unsigned log2_window_;
    unsigned cutoff_;
    std::uint64_t window_mask_;
    rtl::counter occurrences_;
    bool reference_ = false;
    bool alarm_ = false;
};

} // namespace otf::hw
