#include "rtl/shift_register.hpp"

#include <stdexcept>

namespace otf::rtl {

namespace {

// Validates before the length is used as a shift count by the member
// initializers.
unsigned checked_length(unsigned length)
{
    if (length == 0 || length > 63) {
        throw std::invalid_argument("shift register length must be in [1, 63]");
    }
    return length;
}

} // namespace

shift_register::shift_register(std::string name, unsigned length)
    : component(std::move(name)), length_(checked_length(length)),
      mask_((std::uint64_t{1} << length_) - 1)
{
}

void shift_register::shift(bool bit)
{
    window_ = ((window_ << 1) | (bit ? 1u : 0u)) & mask_;
    if (fill_ < length_) {
        ++fill_;
    }
}

void shift_register::shift_word(std::uint64_t word, unsigned nbits)
{
    if (nbits == 0 || nbits > 64) {
        throw std::invalid_argument(
            "shift_register::shift_word: nbits must be in [1, 64]");
    }
    // After shifting bits b_0..b_{nbits-1}, tap j (j cycles ago) holds
    // b_{nbits-1-j}; taps beyond nbits keep the pre-word window shifted up.
    const unsigned keep = nbits < length_ ? nbits : length_;
    std::uint64_t w = nbits < length_ ? (window_ << nbits) : 0;
    for (unsigned j = 0; j < keep; ++j) {
        w |= ((word >> (nbits - 1 - j)) & 1u) << j;
    }
    window_ = w & mask_;
    fill_ = fill_ + nbits < length_ ? fill_ + nbits : length_;
}

void shift_register::shift_span(const std::uint64_t* words,
                                std::size_t nbits)
{
    // Only the last length_ (< 64) bits survive and the fill saturates,
    // so whole words before the final 65+ bits need not be shifted.
    std::size_t p = nbits > 128 ? (nbits - 65) / 64 * 64 : 0;
    for (; p < nbits; p += 64) {
        shift_word(words[p / 64],
                   nbits - p < 64 ? static_cast<unsigned>(nbits - p) : 64u);
    }
}

resources shift_register::self_cost() const
{
    // Parallel taps force FF implementation: 1 FF per stage, no logic.
    return resources{.ffs = length_, .luts = 0, .carry_bits = 0,
                     .mux_levels = 0};
}

} // namespace otf::rtl
