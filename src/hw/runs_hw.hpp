// Hardware engine for the runs test (NIST test 3).
//
// Counts the total number of runs: a run boundary is a bit that differs
// from its predecessor.  Hardware is one counter, a previous-bit flip-flop
// and an XOR; the N_ones value the test also needs comes from the cusum
// engine (sharing trick 1), so no ones-counter appears here.
#pragma once

#include "hw/engine.hpp"
#include "rtl/counter.hpp"

namespace otf::hw {

class runs_hw final : public engine {
public:
    /// \param log2_n sequence-length exponent (sizes the run counter)
    explicit runs_hw(unsigned log2_n);

    void consume(bool bit, std::uint64_t bit_index) override;
    /// \brief Span kernel: one bits::span_transitions over the whole span
    /// (intra-word shifted-XOR popcounts plus word seams), a single seam
    /// check against the stored flip-flop, one counter commit.
    void consume_span(const std::uint64_t* words, std::size_t nbits,
                      std::uint64_t bit_index) override;
    void add_registers(register_map& map) const override;
    void read_registers(std::uint64_t* out) const override;

    std::uint64_t n_runs() const { return runs_.value(); }

protected:
    rtl::resources self_cost() const override;
    void self_reset() override
    {
        prev_ = false;
        primed_ = false;
    }

private:
    rtl::counter runs_;
    bool prev_ = false;
    bool primed_ = false;
};

} // namespace otf::hw
