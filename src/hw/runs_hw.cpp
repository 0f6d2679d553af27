#include "hw/runs_hw.hpp"

#include "base/bits.hpp"

#include <bit>

namespace otf::hw {

runs_hw::runs_hw(unsigned log2_n)
    : engine("runs"), runs_("n_runs", log2_n + 1)
{
    adopt(runs_);
}

void runs_hw::consume(bool bit, std::uint64_t bit_index)
{
    (void)bit_index;
    // The first bit opens run number one; afterwards every transition
    // opens a new run.
    if (!primed_) {
        runs_.step();
        primed_ = true;
    } else if (bit != prev_) {
        runs_.step();
    }
    prev_ = bit;
}

void runs_hw::consume_span(const std::uint64_t* words, std::size_t nbits,
                           std::uint64_t bit_index)
{
    bits::span_kernel([&] {
        (void)bit_index;
        if (nbits == 0) {
            return;
        }
        const std::size_t nwords = nbits / 64;
        std::uint64_t steps = bits::span_transitions(words, nwords);
        bool prev = prev_;
        bool primed = primed_;
        if (nwords != 0) {
            const bool first = (words[0] & 1u) != 0;
            if (!primed) {
                ++steps;
                primed = true;
            } else if (first != prev) {
                ++steps;
            }
            prev = (words[nwords - 1] >> 63) != 0;
        }
        const unsigned tail = static_cast<unsigned>(nbits % 64);
        if (tail != 0) {
            const std::uint64_t x = words[nwords] & bits::low_mask(tail);
            const std::uint64_t pair_mask = bits::low_mask(tail - 1);
            steps += static_cast<std::uint64_t>(
                std::popcount((x ^ (x >> 1)) & pair_mask));
            const bool first = (x & 1u) != 0;
            if (!primed) {
                ++steps;
                primed = true;
            } else if (first != prev) {
                ++steps;
            }
            prev = ((x >> (tail - 1)) & 1u) != 0;
        }
        runs_.advance(steps);
        prev_ = prev;
        primed_ = primed;
    });
}

void runs_hw::add_registers(register_map& map) const
{
    map.add_scalar("runs.n_runs", runs_.width(), false);
}

void runs_hw::read_registers(std::uint64_t* out) const
{
    out[0] = n_runs();
}

rtl::resources runs_hw::self_cost() const
{
    // Previous-bit FF, primed FF, and the XOR that detects a transition.
    return rtl::resources{.ffs = 2, .luts = 1, .carry_bits = 0,
                          .mux_levels = 0};
}

} // namespace otf::hw
