#include "hw/longest_run_hw.hpp"

#include "base/bits.hpp"

#include <bit>
#include <stdexcept>

namespace otf::hw {

longest_run_hw::longest_run_hw(unsigned log2_n, unsigned log2_m,
                               unsigned v_lo, unsigned v_hi)
    : engine("longest_run"), log2_m_(log2_m), v_lo_(v_lo), v_hi_(v_hi),
      block_mask_((std::uint64_t{1} << log2_m) - 1),
      // A run can fill the whole block: log2(M) + 1 bits, saturating so an
      // all-ones block cannot wrap back into a small category.
      run_length_("run_length", log2_m + 1),
      block_max_("block_max", log2_m + 1)
{
    if (log2_m >= log2_n) {
        throw std::invalid_argument("longest_run_hw: M must divide n");
    }
    if (v_lo >= v_hi) {
        throw std::invalid_argument("longest_run_hw: need v_lo < v_hi");
    }
    adopt(run_length_);
    adopt(block_max_);
    // Category counters hold up to N = n / M blocks.
    const unsigned counter_width = (log2_n - log2_m) + 1;
    const unsigned category_total = v_hi - v_lo + 1;
    categories_.reserve(category_total);
    for (unsigned c = 0; c < category_total; ++c) {
        categories_.push_back(std::make_unique<rtl::counter>(
            "nu[" + std::to_string(c) + "]", counter_width));
        adopt(*categories_.back());
    }
}

void longest_run_hw::consume(bool bit, std::uint64_t bit_index)
{
    if (bit) {
        run_length_.step();
        block_max_.observe(static_cast<std::int64_t>(run_length_.value()));
    } else {
        run_length_.clear();
    }
    const bool block_end = (bit_index & block_mask_) == block_mask_;
    if (block_end) {
        const auto longest =
            static_cast<unsigned>(block_max_.value());
        unsigned category;
        if (longest <= v_lo_) {
            category = 0;
        } else if (longest >= v_hi_) {
            category = v_hi_ - v_lo_;
        } else {
            category = longest - v_lo_;
        }
        categories_[category]->step();
        run_length_.clear();
        block_max_.clear();
    }
}

void longest_run_hw::consume_span(const std::uint64_t* words,
                                  std::size_t nbits, std::uint64_t bit_index)
{
    // The carried run and the block maximum live in locals; the RTL
    // counters commit once at the end of the span.  Each segment stops at
    // the next word or block boundary, whichever comes first, so any
    // block length and any span alignment take the same loop.
    const std::uint64_t run_sat = run_length_.max_value();
    std::uint64_t run = run_length_.value();
    std::int64_t bmax = block_max_.value();
    std::size_t done = 0;
    while (done < nbits) {
        const unsigned off = static_cast<unsigned>(done % 64);
        const std::uint64_t pos_in_block = (bit_index + done) & block_mask_;
        std::uint64_t limit = (block_mask_ + 1) - pos_in_block;
        limit = limit < 64 - off ? limit : 64 - off;
        const unsigned take = static_cast<unsigned>(
            limit < nbits - done ? limit : nbits - done);
        const std::uint64_t seg =
            (words[done / 64] >> off) & bits::low_mask(take);
        const unsigned lead =
            static_cast<unsigned>(std::countr_one(seg)) < take
            ? static_cast<unsigned>(std::countr_one(seg))
            : take;
        std::uint64_t seg_max;
        std::uint64_t run_out;
        if (lead == take) {
            // All ones: the carried run extends across the whole segment.
            seg_max = run + take;
            run_out = seg_max;
        } else {
            // Longest interior run of ones via the shift-AND scan; random
            // segments terminate in a handful of iterations.
            std::uint64_t y = seg;
            unsigned interior = 0;
            while (y != 0) {
                ++interior;
                y &= y << 1;
            }
            const std::uint64_t head = run + lead;
            seg_max = head > interior ? head : interior;
            run_out = static_cast<unsigned>(
                std::countl_one(seg << (64 - take)));
        }
        if (static_cast<std::int64_t>(seg_max) > bmax) {
            bmax = static_cast<std::int64_t>(seg_max);
        }
        run = run_out < run_sat ? run_out : run_sat;

        if (pos_in_block + take == block_mask_ + 1) {
            const auto longest = static_cast<unsigned>(bmax);
            unsigned category;
            if (longest <= v_lo_) {
                category = 0;
            } else if (longest >= v_hi_) {
                category = v_hi_ - v_lo_;
            } else {
                category = longest - v_lo_;
            }
            categories_[category]->step();
            run = 0;
            bmax = 0;
        }
        done += take;
    }
    run_length_.clear();
    run_length_.advance(run);
    block_max_.clear();
    if (bmax > 0) {
        block_max_.observe(bmax);
    }
}

void longest_run_hw::add_registers(register_map& map) const
{
    for (unsigned c = 0; c < categories_.size(); ++c) {
        map.add_scalar("longest_run.nu[" + std::to_string(c) + "]",
                       categories_[c]->width(), false,
                       [this, c] { return categories_[c]->value(); });
    }
}

rtl::resources longest_run_hw::self_cost() const
{
    // Classification row: one constant comparator per internal category
    // bound (v_hi - v_lo of them) on the block-max value, plus the
    // block-end decode of the global counter's low bits.
    const unsigned width = log2_m_ + 1;
    const std::uint32_t cmp_luts = (v_hi_ - v_lo_) * ((width + 1) / 2);
    const std::uint32_t decode_luts = (log2_m_ + 5) / 6;
    return rtl::resources{.ffs = 0, .luts = cmp_luts + decode_luts,
                          .carry_bits = width, .mux_levels = 0};
}

} // namespace otf::hw
