// Hardware engine for the frequency test within a block (NIST test 2).
//
// One ones-counter accumulates epsilon_i for the current block; at every
// block boundary the value is stored into a register bank slot and the
// counter clears.  Block boundaries and the bank write index come straight
// from the global bit counter (sharing trick 2: M is a power of two, so the
// boundary is "low log2(M) bits all ones" and the slot index is the high
// bits) -- the engine owns no position counter of its own.
#pragma once

#include "hw/engine.hpp"
#include "rtl/counter.hpp"
#include "rtl/registers.hpp"

namespace otf::hw {

class block_frequency_hw final : public engine {
public:
    /// \param log2_n sequence-length exponent
    /// \param log2_m block-length exponent (M = 2^log2_m must divide n)
    block_frequency_hw(unsigned log2_n, unsigned log2_m);

    void consume(bool bit, std::uint64_t bit_index) override;
    /// \brief Span kernel: one bits::range_popcount per block-bounded
    /// segment of the span (whole-block popcounts when M >= 64, one
    /// segment per block inside a word otherwise), with the same
    /// boundary/bank-slot decode as the per-bit path.
    void consume_span(const std::uint64_t* words, std::size_t nbits,
                      std::uint64_t bit_index) override;
    void add_registers(register_map& map) const override;
    void read_registers(std::uint64_t* out) const override;

    unsigned block_count() const { return block_count_; }
    std::uint64_t ones_in_block(unsigned index) const
    {
        return bank_.read(index);
    }

protected:
    rtl::resources self_cost() const override;
    void self_reset() override {}

private:
    unsigned log2_m_;
    unsigned block_count_;
    std::uint64_t block_mask_;
    rtl::counter ones_;
    rtl::register_bank bank_;
};

} // namespace otf::hw
