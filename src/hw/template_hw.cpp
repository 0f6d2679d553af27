#include "hw/template_hw.hpp"

#include "base/bits.hpp"

#include <bit>
#include <stdexcept>

namespace {

// Bit i of the result is 1 iff the template-length window ending at bit i
// of `x` equals `pattern` (window bit j = stream bit i - j, i.e. bit i of
// z_j); positions reaching before `x` borrow from `prev`'s top bits.
std::uint64_t match_mask(std::uint64_t x, std::uint64_t prev,
                         std::uint64_t pattern, unsigned len)
{
    std::uint64_t mask = (pattern & 1u) != 0 ? x : ~x;
    for (unsigned j = 1; j < len; ++j) {
        const std::uint64_t z = (x << j) | (prev >> (64u - j));
        mask &= ((pattern >> j) & 1u) != 0 ? z : ~z;
    }
    return mask;
}

// The virtual previous word at a span's first word: window bit k - 1 holds
// stream bit start - k, which the mask kernel reads as bit 64 - k of the
// word before the span.
std::uint64_t prev_from_window(std::uint64_t window, unsigned len)
{
    std::uint64_t prev = 0;
    for (unsigned k = 1; k < len; ++k) {
        prev |= ((window >> (k - 1)) & 1u) << (64u - k);
    }
    return prev;
}

// Window register value after a full word: window bit j is bit 63 - j.
std::uint64_t window_from_word(std::uint64_t word, unsigned len)
{
    std::uint64_t w = 0;
    for (unsigned j = 0; j + 1 < len; ++j) {
        w |= ((word >> (63u - j)) & 1u) << j;
    }
    return w;
}

} // namespace

namespace otf::hw {

namespace {

// The shared window's low `len` bits hold the MSB-first pattern that ends at
// the newest bit (shift_register documents LSB = newest, and an MSB-first
// pattern starting j positions back reads bit j down to bit 0).
bool window_matches(const rtl::shift_register& window,
                    const rtl::pattern_matcher& matcher, unsigned len)
{
    const std::uint64_t view = window.window() & ((1u << len) - 1u);
    return matcher.matches(view);
}

} // namespace

non_overlapping_hw::non_overlapping_hw(unsigned log2_n, unsigned log2_m,
                                       std::uint32_t templ,
                                       unsigned template_length,
                                       rtl::shift_register& window)
    : engine("non_overlapping_template"), log2_m_(log2_m),
      template_length_(template_length),
      block_count_(1u << (log2_n - log2_m)),
      block_mask_((std::uint64_t{1} << log2_m) - 1), window_(window),
      matcher_("t7_match", template_length, templ),
      w_("w", static_cast<unsigned>(std::bit_width(
                  (std::uint64_t{1} << log2_m) / template_length))),
      bank_("w_bank", block_count_, w_.width())
{
    if (log2_m >= log2_n) {
        throw std::invalid_argument("non_overlapping_hw: M must divide n");
    }
    if (window.length() < template_length) {
        throw std::invalid_argument(
            "non_overlapping_hw: shared window shorter than template");
    }
    adopt(matcher_);
    adopt(w_);
    adopt(bank_);
}

void non_overlapping_hw::consume(bool bit, std::uint64_t bit_index)
{
    (void)bit;
    // The testing block shifts the shared window before engines run.
    const std::uint64_t pos_in_block = bit_index & block_mask_;
    const bool window_inside = pos_in_block >= template_length_ - 1;
    if (window_inside && inhibit_ == 0
        && window_matches(window_, matcher_, template_length_)) {
        w_.step();
        inhibit_ = template_length_ - 1; // restart scan after the template
    } else if (inhibit_ > 0) {
        --inhibit_;
    }
    const bool block_end = pos_in_block == block_mask_;
    if (block_end) {
        const auto slot = static_cast<unsigned>(bit_index >> log2_m_);
        bank_.write(slot, w_.value());
        w_.clear();
        inhibit_ = 0;
    }
}

void non_overlapping_hw::consume_span(const std::uint64_t* words,
                                      std::size_t nbits,
                                      std::uint64_t bit_index)
{
    bits::span_kernel([&] {
        const std::uint64_t len_mask =
            (std::uint64_t{1} << template_length_) - 1;
        const std::uint64_t pattern = matcher_.pattern() & len_mask;
        const std::uint64_t w_mask =
            (std::uint64_t{1} << w_.width()) - 1;
        std::uint64_t matches = w_.value();
        unsigned inhibit = inhibit_;

        // Shared-window engines reconstruct the window across the whole span
        // (the block shifts the shared register only after the span), so both
        // paths below track it locally; the per-bit default would read a
        // stale register and is never used here.
        const auto scan = [&](std::uint64_t& w, std::size_t first,
                              std::size_t last) {
            for (std::size_t i = first; i < last; ++i) {
                w = (w << 1) | ((words[i / 64] >> (i % 64)) & 1u);
                const std::uint64_t idx = bit_index + i;
                const std::uint64_t pos_in_block = idx & block_mask_;
                if (pos_in_block >= template_length_ - 1 && inhibit == 0
                    && (w & len_mask) == pattern) {
                    ++matches;
                    inhibit = template_length_ - 1;
                } else if (inhibit > 0) {
                    --inhibit;
                }
                if (pos_in_block == block_mask_) {
                    bank_.write(static_cast<unsigned>(idx >> log2_m_),
                                matches & w_mask);
                    matches = 0;
                    inhibit = 0;
                }
            }
        };

        if (log2_m_ < 6 || bit_index % 64 != 0) {
            std::uint64_t w = window_.window();
            scan(w, 0, nbits);
        } else {
            // Word-aligned fast path: one match mask per word, matches picked
            // greedily with the non-overlap restart tracked as the next
            // eligible position (`inhibit` remaining skips = position of the
            // next eligible bit relative to the word start).
            const std::size_t full_end = nbits / 64;
            const std::uint64_t eligible_start =
                ~bits::low_mask(template_length_ - 1);
            std::uint64_t prev =
                prev_from_window(window_.window(), template_length_);
            unsigned next_ok = inhibit;
            for (std::size_t widx = 0; widx < full_end; ++widx) {
                const std::uint64_t x = words[widx];
                const std::uint64_t word_start = bit_index + widx * 64;
                std::uint64_t mask =
                    match_mask(x, prev, pattern, template_length_);
                if ((word_start & block_mask_) == 0) {
                    mask &= eligible_start;
                }
                while (mask != 0) {
                    const unsigned i =
                        static_cast<unsigned>(std::countr_zero(mask));
                    mask &= mask - 1;
                    if (i < next_ok) {
                        continue;
                    }
                    ++matches;
                    next_ok = i + template_length_;
                }
                next_ok = next_ok > 64 ? next_ok - 64 : 0;
                if ((word_start & block_mask_) == block_mask_ + 1 - 64) {
                    bank_.write(
                        static_cast<unsigned>((word_start + 63) >> log2_m_),
                        matches & w_mask);
                    matches = 0;
                    next_ok = 0;
                }
                prev = x;
            }
            inhibit = next_ok;
            if (nbits % 64 != 0) {
                std::uint64_t w = full_end != 0
                    ? window_from_word(prev, template_length_)
                    : window_.window();
                scan(w, full_end * 64, nbits);
            }
        }
        w_.clear();
        w_.advance(matches);
        inhibit_ = inhibit;
    });
}

void non_overlapping_hw::add_registers(register_map& map) const
{
    for (unsigned i = 0; i < block_count_; ++i) {
        map.add_group_element(
            "non_overlapping.w",
            "non_overlapping.w[" + std::to_string(i) + "]", bank_.width(),
            false);
    }
}

void non_overlapping_hw::read_registers(std::uint64_t* out) const
{
    for (unsigned i = 0; i < block_count_; ++i) {
        out[i] = bank_.read(i);
    }
}

rtl::resources non_overlapping_hw::self_cost() const
{
    // Inhibit down-counter (4 bits covers any template up to 16 bits) with
    // its zero-detect, plus the window-inside-block decode.
    const std::uint32_t decode_luts = 1 + (log2_m_ + 5) / 6;
    return rtl::resources{.ffs = 4, .luts = 4 + decode_luts,
                          .carry_bits = 4, .mux_levels = 0};
}

overlapping_hw::overlapping_hw(unsigned log2_n, unsigned log2_m,
                               std::uint32_t templ,
                               unsigned template_length, unsigned max_count,
                               rtl::shift_register& window)
    : engine("overlapping_template"), log2_m_(log2_m),
      template_length_(template_length), max_count_(max_count),
      block_mask_((std::uint64_t{1} << log2_m) - 1), window_(window),
      matcher_("t8_match", template_length, templ),
      // Saturates just above the last category, so ">= max_count" survives
      // any block content.
      block_matches_("block_matches",
                     static_cast<unsigned>(std::bit_width(max_count)) + 1)
{
    if (log2_m >= log2_n) {
        throw std::invalid_argument("overlapping_hw: M must divide n");
    }
    if (window.length() < template_length) {
        throw std::invalid_argument(
            "overlapping_hw: shared window shorter than template");
    }
    adopt(matcher_);
    adopt(block_matches_);
    const unsigned block_count_width = (log2_n - log2_m) + 1;
    categories_.reserve(max_count + 1);
    for (unsigned c = 0; c <= max_count; ++c) {
        categories_.push_back(std::make_unique<rtl::counter>(
            "nu_temp[" + std::to_string(c) + "]", block_count_width));
        adopt(*categories_.back());
    }
}

void overlapping_hw::consume(bool bit, std::uint64_t bit_index)
{
    (void)bit;
    const std::uint64_t pos_in_block = bit_index & block_mask_;
    const bool window_inside = pos_in_block >= template_length_ - 1;
    if (window_inside
        && window_matches(window_, matcher_, template_length_)) {
        block_matches_.step();
    }
    const bool block_end = pos_in_block == block_mask_;
    if (block_end) {
        const std::uint64_t matches = block_matches_.value();
        const unsigned category = (matches >= max_count_)
            ? max_count_
            : static_cast<unsigned>(matches);
        categories_[category]->step();
        block_matches_.clear();
    }
}

void overlapping_hw::consume_span(const std::uint64_t* words,
                                  std::size_t nbits, std::uint64_t bit_index)
{
    bits::span_kernel([&] {
        const std::uint64_t len_mask =
            (std::uint64_t{1} << template_length_) - 1;
        const std::uint64_t pattern = matcher_.pattern() & len_mask;
        const std::uint64_t sat = block_matches_.max_value();
        std::uint64_t matches = block_matches_.value();

        const auto scan = [&](std::uint64_t& w, std::size_t first,
                              std::size_t last) {
            for (std::size_t i = first; i < last; ++i) {
                w = (w << 1) | ((words[i / 64] >> (i % 64)) & 1u);
                const std::uint64_t idx = bit_index + i;
                const std::uint64_t pos_in_block = idx & block_mask_;
                if (pos_in_block >= template_length_ - 1
                    && (w & len_mask) == pattern && matches < sat) {
                    ++matches;
                }
                if (pos_in_block == block_mask_) {
                    const unsigned category = matches >= max_count_
                        ? max_count_
                        : static_cast<unsigned>(matches);
                    categories_[category]->step();
                    matches = 0;
                }
            }
        };

        if (log2_m_ < 6 || bit_index % 64 != 0) {
            std::uint64_t w = window_.window();
            scan(w, 0, nbits);
        } else {
            // Word-aligned fast path: overlapping matches are just the
            // popcount of the match mask; the saturating clamp commutes with
            // batching because the count only grows within a block.
            const std::size_t full_end = nbits / 64;
            const std::uint64_t eligible_start =
                ~bits::low_mask(template_length_ - 1);
            std::uint64_t prev =
                prev_from_window(window_.window(), template_length_);
            for (std::size_t widx = 0; widx < full_end; ++widx) {
                const std::uint64_t x = words[widx];
                const std::uint64_t word_start = bit_index + widx * 64;
                std::uint64_t mask =
                    match_mask(x, prev, pattern, template_length_);
                if ((word_start & block_mask_) == 0) {
                    mask &= eligible_start;
                }
                matches += static_cast<std::uint64_t>(std::popcount(mask));
                if (matches > sat) {
                    matches = sat;
                }
                if ((word_start & block_mask_) == block_mask_ + 1 - 64) {
                    const unsigned category = matches >= max_count_
                        ? max_count_
                        : static_cast<unsigned>(matches);
                    categories_[category]->step();
                    matches = 0;
                }
                prev = x;
            }
            if (nbits % 64 != 0) {
                std::uint64_t w = full_end != 0
                    ? window_from_word(prev, template_length_)
                    : window_.window();
                scan(w, full_end * 64, nbits);
            }
        }
        block_matches_.clear();
        block_matches_.advance(matches);
    });
}

void overlapping_hw::add_registers(register_map& map) const
{
    for (unsigned c = 0; c < categories_.size(); ++c) {
        map.add_scalar("overlapping.nu_temp[" + std::to_string(c) + "]",
                       categories_[c]->width(), false);
    }
}

void overlapping_hw::read_registers(std::uint64_t* out) const
{
    for (std::size_t c = 0; c < categories_.size(); ++c) {
        out[c] = categories_[c]->value();
    }
}

rtl::resources overlapping_hw::self_cost() const
{
    // Category classification (compare block_matches against max_count)
    // plus block-end decode.
    const std::uint32_t decode_luts = 2 + (log2_m_ + 5) / 6;
    return rtl::resources{.ffs = 0, .luts = decode_luts, .carry_bits = 0,
                          .mux_levels = 0};
}

} // namespace otf::hw
