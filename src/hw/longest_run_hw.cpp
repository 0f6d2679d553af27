#include "hw/longest_run_hw.hpp"

#include "base/bits.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>

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
    tally_.assign(category_total, 0);
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

namespace {

/// Run structure of one byte in stream (LSB-first) order.
struct byte_runs {
    std::uint8_t lead;  ///< ones before the first zero (8: all ones)
    std::uint8_t trail; ///< ones after the last zero (8: all ones)
    std::uint8_t inner; ///< longest run of ones anywhere in the byte
};

/// The 256-entry run table, built on first use, once per process (a
/// function-local static is thread-safe).
const std::array<byte_runs, 256>& run_table()
{
    static const std::array<byte_runs, 256> table = [] {
        std::array<byte_runs, 256> t{};
        for (unsigned b = 0; b < 256; ++b) {
            unsigned inner = 0;
            for (unsigned y = b; y != 0; y &= y << 1) {
                ++inner;
            }
            t[b] = byte_runs{
                static_cast<std::uint8_t>(std::countr_one(b)),
                static_cast<std::uint8_t>(
                    std::countl_one(static_cast<std::uint8_t>(b))),
                static_cast<std::uint8_t>(inner)};
        }
        return t;
    }();
    return table;
}

} // namespace

void longest_run_hw::consume_span(const std::uint64_t* words,
                                  std::size_t nbits, std::uint64_t bit_index)
{
    bits::span_kernel([&] {
        // The carried run and the block maximum live in locals; closed blocks
        // tally per category and the RTL counters commit once at the end of
        // the span.  A run never outgrows its block (M < 2^(log2 M + 1)), so
        // the saturating run counter never clamps.
        const byte_runs* table = run_table().data();
        const std::uint64_t block_bits = block_mask_ + 1;
        const std::uint64_t v_lo = v_lo_;
        const std::uint64_t top_category = v_hi_ - v_lo_;
        std::uint64_t* tally = tally_.data();
        std::uint64_t run = run_length_.value();
        std::uint64_t bmax = static_cast<std::uint64_t>(block_max_.value());
        std::uint64_t to_block_end = block_bits - (bit_index & block_mask_);
        const bool closes = nbits >= to_block_end;

        // k (1..8) stream bits, LSB first in the low bits of x.  The low-masked
        // bits give the leading and longest runs; the same bits shifted to the
        // top of the byte give the trailing run (k = 8: the same entry).
        const auto step = [&](std::uint64_t x, unsigned k) {
            const unsigned low = static_cast<unsigned>(x) & (0xFFu >> (8 - k));
            const byte_runs& e = table[low];
            const byte_runs& top = table[(low << (8 - k)) & 0xFFu];
            const std::uint64_t head = run + e.lead;
            const std::uint64_t longest = head > e.inner ? head : e.inner;
            bmax = longest > bmax ? longest : bmax;
            run = e.lead == k ? run + k : top.trail;
        };

        const auto close_block = [&] {
            // Category = the block maximum clamped to [v_lo, v_hi], minus
            // v_lo, by masks: the category is random per block, so a branch
            // here mispredicts.
            std::uint64_t category =
                (bmax - v_lo) & (std::uint64_t{0} - (bmax >= v_lo));
            category -= (category - top_category)
                & (std::uint64_t{0} - (category > top_category));
            ++tally[category];
            run = 0;
            bmax = 0;
            to_block_end = block_bits;
        };

        // Per span word: eight whole-byte steps when its block ends fall on
        // byte boundaries; otherwise pieces of up to 8 bits that stop at block
        // ends (M < 8, unaligned blocks, the span's last word, whose bits past
        // nbits the piece masks drop).
        for (std::size_t done = 0; done < nbits; done += 64) {
            const std::uint64_t x = words[done / 64];
            const unsigned avail =
                static_cast<unsigned>(std::min<std::size_t>(64, nbits - done));
            if (avail == 64 && to_block_end % 8 == 0) {
                // Unrolled, so the byte offsets are constants; a block may
                // close after any byte (M = 8..32, or a longer block's end).
                [&]<unsigned... B>(std::integer_sequence<unsigned, B...>) {
                    ((step(x >> (8 * B), 8), to_block_end -= 8,
                      to_block_end == 0 ? close_block() : void()),
                     ...);
                }(std::make_integer_sequence<unsigned, 8>{});
            } else {
                for (unsigned used = 0; used < avail;) {
                    const unsigned k =
                        static_cast<unsigned>(std::min<std::uint64_t>(
                            {8, avail - used, to_block_end}));
                    if (k == 8) { // the constant k folds to one lookup
                        step(x >> used, 8);
                    } else {
                        step(x >> used, k);
                    }
                    used += k;
                    to_block_end -= k;
                    if (to_block_end == 0) {
                        close_block();
                    }
                }
            }
        }

        if (closes) {
            for (std::size_t c = 0; c < tally_.size(); ++c) {
                categories_[c]->advance(tally_[c]);
                tally_[c] = 0;
            }
        }
        run_length_.clear();
        run_length_.advance(run);
        block_max_.clear();
        if (bmax > 0) {
            block_max_.observe(static_cast<std::int64_t>(bmax));
        }
    });
}

void longest_run_hw::add_registers(register_map& map) const
{
    for (unsigned c = 0; c < categories_.size(); ++c) {
        map.add_scalar("longest_run.nu[" + std::to_string(c) + "]",
                       categories_[c]->width(), false);
    }
}

void longest_run_hw::read_registers(std::uint64_t* out) const
{
    for (std::size_t c = 0; c < categories_.size(); ++c) {
        out[c] = categories_[c]->value();
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
