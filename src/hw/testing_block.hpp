// The unified hardware testing block (Fig. 2 of the paper).
//
// Owns the global bit counter, the shared template shift register, one
// engine per enabled test and the memory-mapped readout interface.  Every
// incoming random bit is processed by all engines within one clock cycle.
// The block is also the unit of area accounting: its resource inventory,
// run through the technology models, regenerates the FPGA and ASIC columns
// of Table III.
//
// Operation protocol:
//   testing_block block(config);
//   for each bit: block.feed(bit);      // n = config.n() bits
//   block.finish();                     // serial cyclic flush (m-1 cycles),
//                                       // then capture every engine
//   ... software reads block.registers() ...
//   block.restart();                    // clear for the next sequence
//
// Readout: the register map is a value file, one slot per mapped entry.
// finish() captures every engine into it (engine::read_registers, in the
// order add_registers declared the entries), so software reads the
// finished window by index.  restart() captures the cleared engines again
// unless the block is double-buffered; then the file holds the finished
// window while the next one streams (the result latch of continuous
// operation, costed in self_cost()).
// A fresh block's file reads the reset values (all zero).
//
// On-the-fly reconfiguration (the paper's "software-selectable sequence
// length and parameters"): the block's control plane -- one writable
// register per entry of hw::config_registers, then the 1-bit
// `ctrl.reconfigure` strobe -- stages a new design point and applies it
// at a sequence boundary.  Control registers sit on the MCU's peripheral
// write bus, not behind the readout mux, so they are not part of the
// register map or its Table III accounting.  The block keeps the built
// engine set, template window, register map and mux of the last
// `resident_designs` design points it ran: strobing a resident design
// swaps its set back in and resets it in place; any other design is built
// and the least recently used parked set is dropped.  Only the live set
// is adopted, so cost() and Table III count the active design alone.  A
// reprogrammed block -- resident hit or fresh build -- is register-exact
// with a freshly constructed block of the same design on all subsequent
// words, and before them: no latch, a zero value file.
// `reprogram()` drives the whole handshake through the register write
// path, exactly as the embedded software would.
#pragma once

#include "base/bits.hpp"
#include "hw/block_frequency_hw.hpp"
#include "hw/config.hpp"
#include "hw/cusum_hw.hpp"
#include "hw/engine.hpp"
#include "hw/longest_run_hw.hpp"
#include "hw/register_map.hpp"
#include "hw/runs_hw.hpp"
#include "hw/serial_hw.hpp"
#include "hw/template_hw.hpp"
#include "rtl/mux.hpp"

#include <iterator>
#include <memory>
#include <string_view>
#include <vector>

namespace otf::hw {

class testing_block final : public rtl::component {
public:
    /// \brief Build the engine set for one design point.
    /// \param config validated design-point parameters (throws
    ///        std::invalid_argument on inconsistency)
    explicit testing_block(block_config config);

    const block_config& config() const { return active_.config; }

    /// \brief Consume one random bit (one clock cycle).
    /// \throws std::logic_error if the sequence is already complete
    void feed(bool bit);

    /// \brief Packed fast lane: consume a whole packed span in one
    /// dispatch per engine (engine::consume_span kernels -- popcount
    /// accumulation, match masks, the walk summary -- each committing
    /// their RTL state once).  Bit-exact with nbits feed() calls at any
    /// chunking, down to one bit per span; the per-bit path stays the
    /// equivalence oracle (tests/test_kernel_oracle.cpp).
    /// \param words bits packed LSB-first, in stream order (bit i of
    ///        words[i/64] is stream bit bits_consumed() + i)
    /// \param nbits number of valid bits; ragged (non-multiple-of-64)
    ///        lengths are allowed
    /// \throws std::logic_error if the span would run past n
    void feed_span(const std::uint64_t* words, std::size_t nbits);

    /// \brief End of sequence: replays the stored opening bits through
    /// the serial engine (cyclic extension), captures every engine into
    /// the register map's value file and latches the done flag.
    /// \throws std::logic_error unless exactly n bits have been fed
    void finish();

    /// \brief Feed a whole sequence and finish.
    /// \param seq the window; its length must equal n
    void run(const bit_sequence& seq);

    /// \brief Clear all engines for a fresh sequence.  A plain block's
    /// register map then reads the cleared counters; with a
    /// double-buffered configuration it keeps the previous window's
    /// capture while the next window streams.
    void restart();

    /// True when double-buffering holds a captured result set.
    bool latched() const { return latch_valid_; }

    bool done() const { return done_; }
    std::uint64_t bits_consumed() const { return consumed_; }

    /// \brief Reprogram the live block to a new design point *through the
    /// register write path*: one write_control() per config register,
    /// staged from `target`, then the `ctrl.reconfigure` strobe.  Only the
    /// design label travels out of band (it is a software-side name, not
    /// a hardware parameter).
    /// \param target the new design point (validated on apply)
    /// \throws std::invalid_argument when `target` is inconsistent
    /// \throws std::logic_error when called mid-sequence (reconfiguration
    /// is only legal at a sequence boundary: 0 bits consumed)
    void reprogram(const block_config& target);

    /// Number of applied `ctrl.reconfigure` strobes, resident hits and
    /// re-strobes of the live design included.
    std::uint64_t reconfigurations() const { return reconfigurations_; }

    /// Index of the `ctrl.reconfigure` strobe; control index i below it
    /// is config_registers[i].
    static constexpr std::size_t reconfigure_strobe =
        std::size(config_registers);

    /// Design points the block keeps built: the live one plus the most
    /// recently used others (a supervisor alternates between two).
    static constexpr std::size_t resident_designs = 2;

    /// \brief Write a control register, masked to its width.  A config
    /// register stages one design parameter; writing 1 to the strobe
    /// validates the staged design and applies it.
    /// \throws std::out_of_range for an unknown index or name (naming it)
    void write_control(std::size_t index, std::uint64_t value);
    void write_control(std::string_view name, std::uint64_t value);

    /// Staged value of a control register (the strobe reads 0).
    std::uint64_t read_control(std::size_t index) const;
    std::uint64_t read_control(std::string_view name) const;

    /// The memory-mapped interface of the live design (valid until the
    /// next applied reconfiguration).
    const register_map& registers() const { return active_.map; }

    // Typed access to the live engines (null when the test is not in the
    // set; valid until the next applied reconfiguration).
    const cusum_hw* cusum() const { return active_.cusum.get(); }
    const runs_hw* runs() const { return active_.runs.get(); }
    const block_frequency_hw* block_frequency() const
    {
        return active_.bf.get();
    }
    const longest_run_hw* longest_run() const { return active_.lr.get(); }
    const non_overlapping_hw* non_overlapping() const
    {
        return active_.t7.get();
    }
    const overlapping_hw* overlapping() const { return active_.t8.get(); }
    const serial_hw* serial() const { return active_.serial.get(); }

protected:
    rtl::resources self_cost() const override;
    void self_reset() override
    {
        consumed_ = 0;
        done_ = false;
    }

private:
    /// The built state of one design point: what a reconfiguration
    /// builds, parks and swaps back in.
    struct design_set {
        block_config config;
        std::unique_ptr<rtl::counter> global_counter;
        std::unique_ptr<rtl::shift_register> template_window;
        std::unique_ptr<cusum_hw> cusum;
        std::unique_ptr<runs_hw> runs;
        std::unique_ptr<block_frequency_hw> bf;
        std::unique_ptr<longest_run_hw> lr;
        std::unique_ptr<non_overlapping_hw> t7;
        std::unique_ptr<overlapping_hw> t8;
        std::unique_ptr<serial_hw> serial;
        std::vector<engine*> engines;
        /// First value slot of each engine in `engines`.
        std::vector<std::size_t> register_base;
        register_map map;
        std::unique_ptr<rtl::readout_mux> mux;
    };

    /// Build the engine set, result plane and readout mux of `config`.
    static design_set build(const block_config& config);
    /// Adopt the active set's components and clear them to the state of
    /// a freshly built block: counters reset, value file zero, no latch.
    void activate();
    /// Write every engine's values into the register map's value file.
    void capture();
    /// The `ctrl.reconfigure` strobe: validate the staged design and
    /// swap its set in.
    void apply_reconfigure();

    /// The live design; feed_span/finish read its members directly.
    design_set active_;
    /// The other resident designs, most recently used first (at most
    /// resident_designs - 1).
    std::vector<design_set> parked_;
    /// Design point staged by the control plane; becomes the live design
    /// when `ctrl.reconfigure` is strobed.
    block_config staged_;
    bool latch_valid_ = false;
    std::uint64_t consumed_ = 0;
    bool done_ = false;
    std::uint64_t reconfigurations_ = 0;
};

} // namespace otf::hw
