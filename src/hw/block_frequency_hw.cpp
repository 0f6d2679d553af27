#include "hw/block_frequency_hw.hpp"

#include "base/bits.hpp"

#include <stdexcept>

namespace otf::hw {

block_frequency_hw::block_frequency_hw(unsigned log2_n, unsigned log2_m)
    : engine("block_frequency"), log2_m_(log2_m),
      block_count_(1u << (log2_n - log2_m)),
      block_mask_((std::uint64_t{1} << log2_m) - 1),
      // epsilon can equal M itself, hence the +1 bit.
      ones_("ones", log2_m + 1),
      bank_("eps_bank", block_count_, log2_m + 1)
{
    if (log2_m >= log2_n) {
        throw std::invalid_argument("block_frequency_hw: M must divide n");
    }
    adopt(ones_);
    adopt(bank_);
}

void block_frequency_hw::consume(bool bit, std::uint64_t bit_index)
{
    ones_.step(bit);
    const bool block_end = (bit_index & block_mask_) == block_mask_;
    if (block_end) {
        const auto slot = static_cast<unsigned>(bit_index >> log2_m_);
        bank_.write(slot, ones_.value());
        ones_.clear();
    }
}

void block_frequency_hw::consume_span(const std::uint64_t* words,
                                      std::size_t nbits,
                                      std::uint64_t bit_index)
{
    bits::span_kernel([&] {
        std::size_t done = 0;
        while (done < nbits) {
            const std::uint64_t pos_in_block = (bit_index + done) & block_mask_;
            const std::uint64_t to_boundary = (block_mask_ + 1) - pos_in_block;
            const std::size_t take = to_boundary < nbits - done
                ? static_cast<std::size_t>(to_boundary)
                : nbits - done;
            ones_.advance(bits::range_popcount(words, done, take));
            if (pos_in_block + take == block_mask_ + 1) {
                const auto slot =
                    static_cast<unsigned>((bit_index + done) >> log2_m_);
                bank_.write(slot, ones_.value());
                ones_.clear();
            }
            done += take;
        }
    });
}

void block_frequency_hw::add_registers(register_map& map) const
{
    for (unsigned i = 0; i < block_count_; ++i) {
        map.add_group_element(
            "block_frequency.eps", "block_frequency.eps[" + std::to_string(i)
                + "]",
            bank_.width(), false);
    }
}

void block_frequency_hw::read_registers(std::uint64_t* out) const
{
    for (unsigned i = 0; i < block_count_; ++i) {
        out[i] = bank_.read(i);
    }
}

rtl::resources block_frequency_hw::self_cost() const
{
    // Block-end decode: AND of the low log2(M) global-counter bits.
    const std::uint32_t decode_luts = (log2_m_ + 5) / 6;
    return rtl::resources{.ffs = 0, .luts = decode_luts, .carry_bits = 0,
                          .mux_levels = 0};
}

} // namespace otf::hw
