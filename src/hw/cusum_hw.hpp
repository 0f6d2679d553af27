// Hardware engine for the cumulative-sums test (NIST test 13).
//
// An up/down counter tracks the random walk S_k = sum of (2 bit - 1); two
// compare-and-load registers track its maximum and minimum.  The hardware
// output is the triple (S_max, S_min, S_final), from which software derives
// both cusum modes *and* -- sharing trick 1 -- the total number of ones
// N_ones = (S_final + n) / 2 used by the frequency and runs tests, which is
// why those two tests need no hardware of their own beyond this engine.
#pragma once

#include "hw/engine.hpp"
#include "rtl/counter.hpp"
#include "rtl/registers.hpp"

namespace otf::hw {

class cusum_hw final : public engine {
public:
    /// \brief Size the walk for 2^log2_n-bit sequences.
    /// \param log2_n sequence-length exponent; the walk register is sized
    ///        so that the extreme walks +/-n are representable
    ///        (log2_n + 2 bits)
    explicit cusum_hw(unsigned log2_n);

    void consume(bool bit, std::uint64_t bit_index) override;
    /// \brief Span kernel: one bits::span_walk over the full words plus a
    /// bits::prefix_walk of the ragged tail summarize the whole span's
    /// trajectory (per-byte lookups of delta, prefix max and prefix min --
    /// 8 table hits replace 64 counter steps); the walk counter and both
    /// extrema trackers commit exactly once.
    void consume_span(const std::uint64_t* words, std::size_t nbits,
                      std::uint64_t bit_index) override;
    void add_registers(register_map& map) const override;
    void read_registers(std::uint64_t* out) const override;

    std::int64_t s_final() const { return walk_.value(); }
    std::int64_t s_max() const { return max_.value(); }
    std::int64_t s_min() const { return min_.value(); }
    unsigned width() const { return walk_.width(); }

protected:
    rtl::resources self_cost() const override;
    void self_reset() override {}

private:
    rtl::up_down_counter walk_;
    rtl::max_tracker max_;
    rtl::min_tracker min_;
};

} // namespace otf::hw
