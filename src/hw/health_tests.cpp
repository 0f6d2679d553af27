#include "hw/health_tests.hpp"

#include "base/bits.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace otf::hw {

namespace {

// Validates before the exponent is used as a shift count and a counter
// width: the member initializers below do both.
unsigned checked_log2_window(unsigned log2_window)
{
    if (log2_window < 4 || log2_window > 16) {
        throw std::invalid_argument(
            "adaptive_proportion_hw: window must be 2^4..2^16 bits, got 2^"
            + std::to_string(log2_window));
    }
    return log2_window;
}

} // namespace

repetition_count_hw::repetition_count_hw(unsigned cutoff)
    : engine("repetition_count"), cutoff_(cutoff),
      // The run counter saturates just above the cutoff; runs longer than
      // the alarm point carry no extra information.
      run_("run", static_cast<unsigned>(std::bit_width(cutoff)) + 1),
      longest_("longest", static_cast<unsigned>(std::bit_width(cutoff)) + 1)
{
    if (cutoff < 2) {
        throw std::invalid_argument(
            "repetition_count_hw: cutoff must be at least 2");
    }
    adopt(run_);
    adopt(longest_);
}

void repetition_count_hw::consume(bool bit, std::uint64_t bit_index)
{
    (void)bit_index;
    if (!primed_ || bit != prev_) {
        run_.clear();
    }
    run_.step();
    primed_ = true;
    prev_ = bit;
    longest_.observe(static_cast<std::int64_t>(run_.value()));
    if (run_.value() >= cutoff_) {
        alarm_ = true; // sticky until the operator clears it
    }
}

void repetition_count_hw::consume_span(const std::uint64_t* words,
                                       std::size_t nbits,
                                       std::uint64_t bit_index)
{
    (void)bit_index;
    if (nbits == 0) {
        return;
    }
    const std::uint64_t sat = run_.max_value();
    std::uint64_t longest = static_cast<std::uint64_t>(longest_.value());
    std::uint64_t run = run_.value();
    bool prev = prev_;
    bool primed = primed_;
    bool alarm = alarm_;
    std::size_t done = 0;
    while (done < nbits) {
        const unsigned take = nbits - done < 64
            ? static_cast<unsigned>(nbits - done)
            : 64u;
        const std::uint64_t word = words[done / 64];
        unsigned pos = 0;
        while (pos < take) {
            const bool cur = ((word >> pos) & 1u) != 0;
            const std::uint64_t same = cur ? (word >> pos) : ~(word >> pos);
            unsigned len = static_cast<unsigned>(std::countr_one(same));
            if (len > take - pos) {
                len = take - pos;
            }
            if (pos == 0 && primed && cur == prev) {
                run = run + len >= sat ? sat : run + len;
            } else {
                run = len >= sat ? sat : len;
            }
            longest = run > longest ? run : longest;
            if (run >= cutoff_) {
                alarm = true;
            }
            prev = cur;
            pos += len;
        }
        primed = true;
        done += take;
    }
    prev_ = prev;
    primed_ = primed;
    alarm_ = alarm;
    run_.clear();
    run_.advance(run);
    longest_.observe(static_cast<std::int64_t>(longest));
}

void repetition_count_hw::add_registers(register_map& map) const
{
    map.add_scalar("health.rct_longest", longest_.width(), false);
    map.add_scalar("health.rct_alarm", 1, false);
}

void repetition_count_hw::read_registers(std::uint64_t* out) const
{
    out[0] = longest_run();
    out[1] = alarm_ ? 1u : 0u;
}

rtl::resources repetition_count_hw::self_cost() const
{
    // prev/primed FFs, the equality XOR, the cutoff comparator and the
    // sticky alarm FF.
    const std::uint32_t cmp = (run_.width() + 1) / 2;
    return rtl::resources{.ffs = 3, .luts = cmp + 2,
                          .carry_bits = run_.width(), .mux_levels = 0};
}

adaptive_proportion_hw::adaptive_proportion_hw(unsigned log2_window,
                                               unsigned cutoff)
    : engine("adaptive_proportion"),
      log2_window_(checked_log2_window(log2_window)), cutoff_(cutoff),
      window_mask_((std::uint64_t{1} << log2_window_) - 1),
      occurrences_("occurrences", log2_window_ + 1)
{
    if (cutoff < 2 || (std::uint64_t{cutoff} >> log2_window) != 0) {
        throw std::invalid_argument(
            "adaptive_proportion_hw: cutoff must fit inside the window");
    }
    adopt(occurrences_);
}

void adaptive_proportion_hw::consume(bool bit, std::uint64_t bit_index)
{
    const std::uint64_t pos = bit_index & window_mask_;
    if (pos == 0) {
        // First sample of the window becomes the reference value and
        // counts as its first occurrence.
        reference_ = bit;
        occurrences_.clear();
    }
    occurrences_.step(bit == reference_);
    if (occurrences_.value() >= cutoff_) {
        alarm_ = true;
    }
}

void adaptive_proportion_hw::consume_span(const std::uint64_t* words,
                                          std::size_t nbits,
                                          std::uint64_t bit_index)
{
    std::size_t done = 0;
    while (done < nbits) {
        const std::uint64_t pos = (bit_index + done) & window_mask_;
        if (pos == 0) {
            reference_ = ((words[done / 64] >> (done % 64)) & 1u) != 0;
            occurrences_.clear();
        }
        const std::uint64_t to_boundary = (window_mask_ + 1) - pos;
        const std::size_t take = to_boundary < nbits - done
            ? static_cast<std::size_t>(to_boundary)
            : nbits - done;
        const std::uint64_t ones = bits::range_popcount(words, done, take);
        occurrences_.advance(reference_ ? ones : take - ones);
        if (occurrences_.value() >= cutoff_) {
            alarm_ = true;
        }
        done += take;
    }
}

void adaptive_proportion_hw::add_registers(register_map& map) const
{
    map.add_scalar("health.apt_count", occurrences_.width(), false);
    map.add_scalar("health.apt_alarm", 1, false);
}

void adaptive_proportion_hw::read_registers(std::uint64_t* out) const
{
    out[0] = current_count();
    out[1] = alarm_ ? 1u : 0u;
}

rtl::resources adaptive_proportion_hw::self_cost() const
{
    // Reference FF, window-start decode off the global counter, equality
    // XOR, cutoff comparator, sticky alarm FF.
    const std::uint32_t decode = (log2_window_ + 5) / 6;
    const std::uint32_t cmp = (occurrences_.width() + 1) / 2;
    return rtl::resources{.ffs = 2, .luts = decode + cmp + 2,
                          .carry_bits = occurrences_.width(),
                          .mux_levels = 0};
}

} // namespace otf::hw
