// Hardware engine for the serial test (NIST test 11) whose pattern-counter
// files are reused verbatim by the approximate-entropy test (test 12) --
// sharing trick 3: "these values are already provided by the serial test
// implementation, therefore there is no need for the separate
// implementation of test 12."
//
// An m-bit shift register tracks the last m input bits; three counter files
// count every overlapping m-, (m-1)- and (m-2)-bit pattern.  The NIST
// definition is cyclic (the sequence is extended by its first m-1 bits), so
// the engine stores the opening m-1 bits and the testing block replays them
// as m-1 flush cycles after the real stream ends; pattern lengths stop
// counting on the flush cycle where their window would wrap past position
// n-1, which yields exactly n counted positions for every length.
//
// Each counter file is readable through its own sub-addressed port, so the
// whole file occupies a single input of the top-level readout mux.
#pragma once

#include "hw/engine.hpp"
#include "rtl/counter.hpp"
#include "rtl/registers.hpp"
#include "rtl/shift_register.hpp"

#include <memory>
#include <vector>

namespace otf::hw {

/// \brief Adds one to counts[v] for every MSB-first m-bit pattern v that
/// ends at a stream bit i in [begin, end) (bit i % 64 of words[i / 64]).
/// `window` is the window register before `begin` (bit j = the bit j + 1
/// positions before it; only its low m-1 bits are read).  For m <= 5 one
/// compile-time table lookup per 8 stream bits, for m in [6, 8] a sliding
/// window; runs under bits::span_kernel.  The serial engine's span kernel
/// and the approximate-entropy calibration (core/critical_values) share it.
/// \param m      pattern length, in [3, 8]
/// \param counts 2^m entries
void count_patterns(const std::uint64_t* words, std::size_t begin,
                    std::size_t end, unsigned m, std::uint64_t window,
                    std::uint32_t* counts);

class serial_hw final : public engine {
public:
    /// \brief Counts patterns of lengths m, m-1 and m-2 over a
    /// 2^log2_n-bit sequence.
    /// \param log2_n sequence-length exponent
    /// \param m      top pattern length, in [3, 8]
    /// \param marginals_in_software when set, the (m-1)- and (m-2)-bit
    ///        counter files are not memory-mapped: software derives those
    ///        counts as cyclic marginals of the m-bit file
    ///        (interface-reduction option, see block_config)
    serial_hw(unsigned log2_n, unsigned m,
              bool marginals_in_software = false);

    bool marginals_in_software() const { return marginals_in_software_; }

    void consume(bool bit, std::uint64_t bit_index) override;
    /// \brief Span kernel: after the per-bit warm-up, count_patterns()
    /// fills the span-local deltas, the marginal files fold from them, and
    /// every touched counter commits exactly once per span.
    void consume_span(const std::uint64_t* words, std::size_t nbits,
                      std::uint64_t bit_index) override;
    void flush(bool bit, unsigned t) override;
    void add_registers(register_map& map) const override;
    void read_registers(std::uint64_t* out) const override;

    unsigned m() const { return m_; }
    /// \brief Pattern count nu for a `length`-bit pattern (MSB-first).
    /// \param length pattern length: m, m-1 or m-2
    /// \param value  the pattern, MSB-first
    std::uint64_t count(unsigned length, std::uint32_t value) const;
    /// \brief The first m-1 bits of the sequence, replayed during the
    /// cyclic-extension flush.
    /// \param index opening-bit position, in [0, m-1)
    bool stored_opening_bit(unsigned index) const;

protected:
    rtl::resources self_cost() const override;
    void self_reset() override { seen_ = 0; }

private:
    unsigned m_;
    bool marginals_in_software_;
    rtl::shift_register window_;
    rtl::data_register opening_bits_;
    std::vector<std::unique_ptr<rtl::counter>> file_m_;
    std::vector<std::unique_ptr<rtl::counter>> file_m1_;
    std::vector<std::unique_ptr<rtl::counter>> file_m2_;
    std::vector<std::uint32_t> deltas_; ///< 2^m span-local pattern counts
    std::uint64_t seen_ = 0;

    void count_window(unsigned flush_t, bool flushing);
    const std::vector<std::unique_ptr<rtl::counter>>&
    file_for(unsigned length) const;
};

} // namespace otf::hw
