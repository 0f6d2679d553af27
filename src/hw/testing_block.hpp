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
// at a sequence boundary, rebuilding the engine set.  Control registers
// sit on the MCU's peripheral write bus, not behind the readout mux, so
// they are not part of the register map or its Table III accounting.  A
// reprogrammed block is register-exact with a freshly constructed block of
// the same design on all subsequent words.  `reprogram()` drives the whole
// handshake through the register write path, exactly as the embedded
// software would.
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

    const block_config& config() const { return config_; }

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

    /// Number of applied on-the-fly reconfigurations.
    std::uint64_t reconfigurations() const { return reconfigurations_; }

    /// Index of the `ctrl.reconfigure` strobe; control index i below it
    /// is config_registers[i].
    static constexpr std::size_t reconfigure_strobe =
        std::size(config_registers);

    /// \brief Write a control register, masked to its width.  A config
    /// register stages one design parameter; writing 1 to the strobe
    /// validates the staged design and applies it.
    /// \throws std::out_of_range for an unknown index or name (naming it)
    void write_control(std::size_t index, std::uint64_t value);
    void write_control(std::string_view name, std::uint64_t value);

    /// Staged value of a control register (the strobe reads 0).
    std::uint64_t read_control(std::size_t index) const;
    std::uint64_t read_control(std::string_view name) const;

    /// The memory-mapped interface (valid for the lifetime of the block).
    const register_map& registers() const { return map_; }

    // Typed access to the engines (null when the test is not in the set).
    const cusum_hw* cusum() const { return cusum_.get(); }
    const runs_hw* runs() const { return runs_.get(); }
    const block_frequency_hw* block_frequency() const { return bf_.get(); }
    const longest_run_hw* longest_run() const { return lr_.get(); }
    const non_overlapping_hw* non_overlapping() const { return t7_.get(); }
    const overlapping_hw* overlapping() const { return t8_.get(); }
    const serial_hw* serial() const { return serial_.get(); }

protected:
    rtl::resources self_cost() const override;
    void self_reset() override
    {
        consumed_ = 0;
        done_ = false;
    }

private:
    /// Build the engine set, result plane and readout mux from `config_`.
    /// Called by the constructor and again on every applied
    /// reconfiguration (after the old engines are torn down).
    void build();
    /// Write every engine's values into the register map's value file.
    void capture();
    /// The `ctrl.reconfigure` strobe: validate the staged design and
    /// rebuild the block around it.
    void apply_reconfigure();

    block_config config_;
    /// Design point staged by the control plane; becomes `config_` when
    /// `ctrl.reconfigure` is strobed.
    block_config staged_;
    std::unique_ptr<rtl::counter> global_counter_;
    std::unique_ptr<rtl::shift_register> template_window_;
    std::unique_ptr<cusum_hw> cusum_;
    std::unique_ptr<runs_hw> runs_;
    std::unique_ptr<block_frequency_hw> bf_;
    std::unique_ptr<longest_run_hw> lr_;
    std::unique_ptr<non_overlapping_hw> t7_;
    std::unique_ptr<overlapping_hw> t8_;
    std::unique_ptr<serial_hw> serial_;
    std::vector<engine*> engines_;
    /// First value slot of each engine in `engines_`.
    std::vector<std::size_t> register_base_;
    register_map map_;
    std::unique_ptr<rtl::readout_mux> mux_;
    bool latch_valid_ = false;
    std::uint64_t consumed_ = 0;
    bool done_ = false;
    std::uint64_t reconfigurations_ = 0;
};

} // namespace otf::hw
