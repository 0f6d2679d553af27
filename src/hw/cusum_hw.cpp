#include "hw/cusum_hw.hpp"

#include "base/bits.hpp"

namespace otf::hw {

cusum_hw::cusum_hw(unsigned log2_n)
    : engine("cusum"), walk_("walk", log2_n + 2),
      max_("s_max", log2_n + 2), min_("s_min", log2_n + 2)
{
    adopt(walk_);
    adopt(max_);
    adopt(min_);
}

void cusum_hw::consume(bool bit, std::uint64_t bit_index)
{
    (void)bit_index;
    walk_.step(bit);
    max_.observe(walk_.value());
    min_.observe(walk_.value());
}

void cusum_hw::consume_span(const std::uint64_t* words, std::size_t nbits,
                            std::uint64_t bit_index)
{
    bits::span_kernel([&] {
        (void)bit_index;
        std::int64_t walk = walk_.value();
        std::int64_t hi = walk_.min_representable();
        std::int64_t lo = walk_.max_representable();
        const std::size_t nwords = nbits / 64;
        if (nwords != 0) {
            const bits::walk_summary ws = bits::span_walk(words, nwords);
            const std::int64_t whi = walk + ws.max_prefix;
            const std::int64_t wlo = walk + ws.min_prefix;
            hi = whi > hi ? whi : hi;
            lo = wlo < lo ? wlo : lo;
            walk += ws.delta;
        }
        const unsigned tail = static_cast<unsigned>(nbits % 64);
        if (tail != 0) {
            const bits::walk_summary ts =
                bits::prefix_walk(words[nwords], tail);
            hi = walk + ts.max_prefix > hi ? walk + ts.max_prefix : hi;
            lo = walk + ts.min_prefix < lo ? walk + ts.min_prefix : lo;
            walk += ts.delta;
        }
        walk_.advance(walk - walk_.value());
        max_.observe(hi);
        min_.observe(lo);
    });
}

void cusum_hw::add_registers(register_map& map) const
{
    const unsigned w = walk_.width();
    map.add_scalar("cusum.s_final", w, true);
    map.add_scalar("cusum.s_max", w, true);
    map.add_scalar("cusum.s_min", w, true);
}

void cusum_hw::read_registers(std::uint64_t* out) const
{
    out[0] = static_cast<std::uint64_t>(s_final());
    out[1] = static_cast<std::uint64_t>(s_max());
    out[2] = static_cast<std::uint64_t>(s_min());
}

rtl::resources cusum_hw::self_cost() const
{
    // Only glue: the bit drives the up/down select directly.
    return {};
}

} // namespace otf::hw
