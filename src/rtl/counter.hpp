// Counter primitives.
//
// These are the workhorses of the testing block: the paper's hardware part
// consists almost entirely of counters ("counting ones and zeros, finding
// the maximal longest run, counting the appearance of a given pattern or
// keeping track of a random walk").  All counters are modelled with an
// explicit bit width so that the resource inventory matches what synthesis
// would infer, and so that overflow behaviour (wrap or saturate) is the same
// as in the RTL.
#pragma once

#include "rtl/component.hpp"

#include <cstdint>

namespace otf::rtl {

/// Synchronous up-counter with enable, `width` bits, wraps on overflow.
///
/// FPGA mapping: one FF and one LUT per bit (the LUT implements the
/// increment via the carry chain); the carry chain length equals the width.
class counter : public component {
public:
    counter(std::string name, unsigned width);

    /// One clock edge with enable asserted.
    void step();
    /// One clock edge with enable driven by `enable`.
    void step(bool enable);

    std::uint64_t value() const { return value_; }
    unsigned width() const { return width_; }

    /// Model-only helper for tests: force a value (masked to width).
    void load(std::uint64_t v) { value_ = v & (modulus_ - 1); }

    /// Word-path bulk update: equivalent of `increments` enabled clock
    /// edges, including the wrap behaviour.  Model-only shortcut -- the
    /// RTL still steps once per bit; the batched software pipeline uses
    /// this to commit a whole word's worth of counting at once.
    void advance(std::uint64_t increments)
    {
        value_ = (value_ + increments) & (modulus_ - 1);
    }

    /// Synchronous clear (per-block restart; the clear enable folds into
    /// the counter's existing LUTs).
    void clear() { value_ = 0; }

protected:
    resources self_cost() const override;
    void self_reset() override { value_ = 0; }

private:
    unsigned width_;
    std::uint64_t modulus_;
    std::uint64_t value_ = 0;
};

/// Saturating up-counter: sticks at 2^width - 1 instead of wrapping.
///
/// Used for pattern-occurrence counters where a saturated value is already
/// deep inside the rejection region, so wrap-around must never launder an
/// extreme count back into the acceptance region.  Costs one extra
/// comparator against the all-ones value.
class saturating_counter : public component {
public:
    saturating_counter(std::string name, unsigned width);

    void step();
    void step(bool enable);

    std::uint64_t value() const { return value_; }
    unsigned width() const { return width_; }
    std::uint64_t max_value() const { return max_; }
    bool saturated() const { return value_ == max_; }

    /// Word-path bulk update: equivalent of `increments` enabled clock
    /// edges, sticking at the all-ones value (model-only shortcut).
    void advance(std::uint64_t increments)
    {
        value_ = (increments >= max_ - value_) ? max_ : value_ + increments;
    }

    /// Synchronous clear (per-block restart).
    void clear() { value_ = 0; }

protected:
    resources self_cost() const override;
    void self_reset() override { value_ = 0; }

private:
    unsigned width_;
    std::uint64_t max_;
    std::uint64_t value_ = 0;
};

/// Two's-complement up/down counter for the cumulative-sums random walk.
///
/// Counts +1 for an incoming one and -1 for a zero.  Width is the total
/// register width including the sign bit; the representable range is
/// [-2^(width-1), 2^(width-1) - 1].  The cusum test sizes it so the walk of
/// an n-bit sequence can never leave the range (width = bits(n) + 1).
class up_down_counter : public component {
public:
    up_down_counter(std::string name, unsigned width);

    /// One clock edge: adds +1 if `up`, else -1.
    void step(bool up);

    /// Word-path bulk update: equivalent of a sequence of steps whose ups
    /// minus downs equals `delta`.  The caller guarantees -- as the
    /// per-bit path does by construction -- that no intermediate walk
    /// value leaves the representable range (model-only shortcut).
    void advance(std::int64_t delta);

    std::int64_t value() const { return value_; }
    unsigned width() const { return width_; }
    std::int64_t min_representable() const { return min_; }
    std::int64_t max_representable() const { return max_; }

protected:
    resources self_cost() const override;
    void self_reset() override { value_ = 0; }

private:
    unsigned width_;
    std::int64_t min_;
    std::int64_t max_;
    std::int64_t value_ = 0;
};

} // namespace otf::rtl
