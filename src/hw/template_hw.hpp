// Hardware engines for the template-matching tests (NIST tests 7 and 8).
//
// Both tests compare the incoming bits against a predefined 9-bit template;
// sharing trick 4 is that they watch the *same* shift register, owned by
// the unified testing block and passed in by reference.  Each engine adds
// only its own comparator, per-block counter and result store:
//
//  * non_overlapping_hw counts non-overlapped occurrences per block (a
//    match inhibits matching for the next m-1 bits, restarting the scan
//    after the matched pattern) and stores W_i in a register bank;
//  * overlapping_hw counts overlapping occurrences per block in a small
//    saturating counter and histograms blocks into the NIST categories
//    {0, 1, ..., K-1, >= K}.
//
// A window is only eligible once it lies entirely inside the current block
// (position-in-block >= m - 1), which is again a decode of the global bit
// counter's low bits.
#pragma once

#include "hw/engine.hpp"
#include "rtl/comparators.hpp"
#include "rtl/counter.hpp"
#include "rtl/registers.hpp"
#include "rtl/shift_register.hpp"

#include <memory>
#include <vector>

namespace otf::hw {

class non_overlapping_hw final : public engine {
public:
    /// \param log2_n          sequence-length exponent
    /// \param log2_m          block-length exponent
    /// \param templ           the predefined template, MSB-first
    /// \param template_length template length in bits (the paper uses 9)
    /// \param window          the shared template shift register (sharing
    ///                        trick 4; not owned)
    non_overlapping_hw(unsigned log2_n, unsigned log2_m,
                       std::uint32_t templ, unsigned template_length,
                       rtl::shift_register& window);

    void consume(bool bit, std::uint64_t bit_index) override;
    /// \brief Span kernel: one AND-combined match mask per word flags
    /// every window position equal to the template; non-overlapped
    /// matches are picked greedily from the mask with count-trailing
    /// scans.  Tracks the shared window locally across the whole span
    /// (the block shifts the shared register once per span on this lane).
    void consume_span(const std::uint64_t* words, std::size_t nbits,
                      std::uint64_t bit_index) override;
    bool watches_shared_window() const override { return true; }
    void add_registers(register_map& map) const override;
    void read_registers(std::uint64_t* out) const override;

    unsigned block_count() const { return block_count_; }
    std::uint64_t matches_in_block(unsigned index) const
    {
        return bank_.read(index);
    }

protected:
    rtl::resources self_cost() const override;
    void self_reset() override { inhibit_ = 0; }

private:
    unsigned log2_m_;
    unsigned template_length_;
    unsigned block_count_;
    std::uint64_t block_mask_;
    rtl::shift_register& window_;
    rtl::pattern_matcher matcher_;
    rtl::counter w_;
    rtl::register_bank bank_;
    unsigned inhibit_ = 0; ///< small down-counter: restart after a match
};

class overlapping_hw final : public engine {
public:
    /// \param log2_n          sequence-length exponent
    /// \param log2_m          block-length exponent
    /// \param templ           the predefined template, MSB-first
    /// \param template_length template length in bits
    /// \param max_count       last NIST category: >= max_count matches
    /// \param window          the shared template shift register (not
    ///                        owned)
    overlapping_hw(unsigned log2_n, unsigned log2_m, std::uint32_t templ,
                   unsigned template_length, unsigned max_count,
                   rtl::shift_register& window);

    void consume(bool bit, std::uint64_t bit_index) override;
    /// \brief Span kernel: overlapping matches per word are the popcount
    /// of the match mask (see non_overlapping_hw::consume_span), clamped
    /// by the saturating block counter.
    void consume_span(const std::uint64_t* words, std::size_t nbits,
                      std::uint64_t bit_index) override;
    bool watches_shared_window() const override { return true; }
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
    unsigned template_length_;
    unsigned max_count_;
    std::uint64_t block_mask_;
    rtl::shift_register& window_;
    rtl::pattern_matcher matcher_;
    rtl::saturating_counter block_matches_;
    std::vector<std::unique_ptr<rtl::counter>> categories_;
};

} // namespace otf::hw
