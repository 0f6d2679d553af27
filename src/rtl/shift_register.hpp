// Serial-in, parallel-out shift register.
//
// The template-matching tests shift the incoming random bits through a 9-bit
// window and compare the parallel taps against predefined templates; the
// serial / approximate-entropy tests use a 4-bit window as the pattern index
// into their counter files.  Because the taps are consumed in parallel every
// cycle, the register cannot be packed into an SRL16 primitive and costs one
// flip-flop per stage -- this is the resource the paper's "shared shift
// register" trick avoids duplicating.
#pragma once

#include "rtl/component.hpp"

#include <cstddef>
#include <cstdint>

namespace otf::rtl {

class shift_register : public component {
public:
    shift_register(std::string name, unsigned length);

    /// One clock edge: shifts `bit` in at the LSB end.
    void shift(bool bit);

    /// Word-path bulk update: equivalent of `nbits` (1..64) shift() calls
    /// where bit i of `word` is the i-th bit shifted in (LSB-first stream
    /// order).  Model-only shortcut for the batched software pipeline.
    void shift_word(std::uint64_t word, unsigned nbits);

    /// Span bulk update: equivalent of `nbits` shift() calls fed from a
    /// packed LSB-first span (bit i of words[i/64] is the i-th bit
    /// shifted in); ragged lengths are allowed.
    void shift_span(const std::uint64_t* words, std::size_t nbits);

    /// Parallel taps: bit i of the result is the value shifted in i cycles
    /// ago (LSB = newest).
    std::uint64_t window() const { return window_; }
    unsigned length() const { return length_; }

    /// Number of bits shifted in since the last reset; the window is only
    /// meaningful once `fill() >= length()`.
    std::uint64_t fill() const { return fill_; }
    bool full() const { return fill_ >= length_; }

protected:
    resources self_cost() const override;
    void self_reset() override
    {
        window_ = 0;
        fill_ = 0;
    }

private:
    unsigned length_;
    std::uint64_t mask_;
    std::uint64_t window_ = 0;
    std::uint64_t fill_ = 0;
};

} // namespace otf::rtl
