#include "rtl/counter.hpp"

#include <cassert>
#include <stdexcept>

namespace otf::rtl {

namespace {

// Validates before the width is used as a shift count: the member
// initializers below shift by it.
unsigned checked_width(unsigned width)
{
    if (width == 0 || width > 63) {
        throw std::invalid_argument("counter width must be in [1, 63]");
    }
    return width;
}

unsigned checked_walk_width(unsigned width)
{
    if (width < 2 || width > 63) {
        throw std::invalid_argument("up/down counter width must be in [2, 63]");
    }
    return width;
}

} // namespace

counter::counter(std::string name, unsigned width)
    : component(std::move(name)), width_(checked_width(width)),
      modulus_(std::uint64_t{1} << width_)
{
}

void counter::step()
{
    value_ = (value_ + 1) & (modulus_ - 1);
}

void counter::step(bool enable)
{
    if (enable) {
        step();
    }
}

resources counter::self_cost() const
{
    // One FF per bit; the increment maps to one LUT per bit feeding the
    // CARRY4 chain, whose length is the counter width.
    return resources{.ffs = width_, .luts = width_, .carry_bits = width_,
                     .mux_levels = 0};
}

saturating_counter::saturating_counter(std::string name, unsigned width)
    : component(std::move(name)), width_(checked_width(width)),
      max_((std::uint64_t{1} << width_) - 1)
{
}

void saturating_counter::step()
{
    if (value_ != max_) {
        ++value_;
    }
}

void saturating_counter::step(bool enable)
{
    if (enable) {
        step();
    }
}

resources saturating_counter::self_cost() const
{
    // Counter plus an equality comparison against the all-ones constant that
    // gates the enable: ~1 LUT per 6 bits, folded into the enable logic.
    const std::uint32_t sat_luts = (width_ + 5) / 6;
    return resources{.ffs = width_, .luts = width_ + sat_luts,
                     .carry_bits = width_, .mux_levels = 0};
}

up_down_counter::up_down_counter(std::string name, unsigned width)
    : component(std::move(name)), width_(checked_walk_width(width)),
      min_(-(std::int64_t{1} << (width_ - 1))),
      max_((std::int64_t{1} << (width_ - 1)) - 1)
{
}

void up_down_counter::step(bool up)
{
    // The RTL adds the sign-extended +/-1; the design guarantees by
    // construction that the walk cannot leave the representable range, and
    // the model asserts that guarantee instead of silently wrapping.
    value_ += up ? 1 : -1;
    assert(value_ >= min_ && value_ <= max_ &&
           "random walk left the sized register range");
}

void up_down_counter::advance(std::int64_t delta)
{
    value_ += delta;
    assert(value_ >= min_ && value_ <= max_ &&
           "random walk left the sized register range");
}

resources up_down_counter::self_cost() const
{
    // Adder/subtractor: one FF and one LUT per bit plus the carry chain; the
    // up/down select folds into the same LUTs on a 6-input architecture.
    return resources{.ffs = width_, .luts = width_, .carry_bits = width_,
                     .mux_levels = 0};
}

} // namespace otf::rtl
