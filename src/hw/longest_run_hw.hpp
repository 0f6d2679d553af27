// Hardware engine for the longest-run-of-ones test (NIST test 4).
//
// A saturating counter tracks the current run of ones; a max register keeps
// the block's longest run.  At each block boundary the block maximum is
// classified into one of the NIST categories {<= v_lo, ..., >= v_hi} by a
// row of constant comparators and the matching category counter increments;
// both trackers then clear.  The software later forms the chi-squared sum
// from the category counters (Table II row 4).
#pragma once

#include "hw/engine.hpp"
#include "rtl/counter.hpp"
#include "rtl/registers.hpp"

#include <memory>
#include <vector>

namespace otf::hw {

class longest_run_hw final : public engine {
public:
    /// \param log2_n sequence-length exponent
    /// \param log2_m block-length exponent (M = 2^log2_m must divide n)
    /// \param v_lo   first NIST category: longest run <= v_lo
    /// \param v_hi   last NIST category: longest run >= v_hi
    longest_run_hw(unsigned log2_n, unsigned log2_m, unsigned v_lo,
                   unsigned v_hi);

    void consume(bool bit, std::uint64_t bit_index) override;
    /// \brief Span kernel: one lookup in a 256-entry table per 8 stream
    /// bits gives the byte's leading, trailing and longest run of ones;
    /// the carried-in run plus the leading ones, the longest run and the
    /// block maximum combine by max, and a closing block's maximum clamps
    /// to its category.  Partial bytes (unaligned heads, span tails,
    /// M < 8) take the same table on masked bits.  The carried run, the
    /// block maximum and a per-span category tally live in locals and
    /// commit to the RTL counters once per span.
    void consume_span(const std::uint64_t* words, std::size_t nbits,
                      std::uint64_t bit_index) override;
    void add_registers(register_map& map) const override;
    void read_registers(std::uint64_t* out) const override;

    unsigned category_count() const
    {
        return static_cast<unsigned>(categories_.size());
    }
    std::uint64_t category(unsigned index) const
    {
        return categories_[index]->value();
    }

protected:
    rtl::resources self_cost() const override;
    void self_reset() override {}

private:
    unsigned log2_m_;
    unsigned v_lo_;
    unsigned v_hi_;
    std::uint64_t block_mask_;
    rtl::saturating_counter run_length_;
    rtl::max_tracker block_max_;
    std::vector<std::unique_ptr<rtl::counter>> categories_;
    /// consume_span's closed blocks per category, zero between spans.
    std::vector<std::uint64_t> tally_;
};

} // namespace otf::hw
