// Memory-mapped register interface of the testing block.
//
// Fig. 2 of the paper: a large multiplexer, selected by a 7-bit address,
// exposes every hardware-computed value to the software platform.  The map
// models that readout as one flat counter file: each `map_entry` describes
// one value (name, width, signedness, group) and the map owns one value
// slot per entry, so reading a value is an index, as selecting a mux input
// is.  The testing block fills the slots from its engines when a window
// closes (testing_block::finish); reads return that capture, not the live
// counters.
//
// The map distinguishes scalar values (one mux input each) from *groups*
// -- register banks and counter files that arrive at the top-level mux
// through their own sub-addressed read port and therefore occupy a single
// top-level input.  The paper points out that this interface "contributes
// significantly to the overall area", which the resource model here makes
// measurable.
//
// Besides the read-only result plane the map carries a *control plane*:
// writable configuration registers through which the software platform
// reconfigures the testing block on the fly (the paper's future-work
// flexibility -- "software-selectable sequence length and parameters").
// Control registers live on the MCU's peripheral write bus, not behind the
// readout mux, so they do not perturb the Table III interface accounting
// (top_level_inputs / max_width / total_words cover the result plane only).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace otf::hw {

/// Descriptor of one result-plane value; the value itself sits at the
/// same index of register_map::values().
struct map_entry {
    std::string name;
    unsigned width = 16;  ///< value width in bits, in [1, 64]
    bool is_signed = false;
    /// Entries of the same non-empty group share one top-level mux input.
    std::string group;
};

/// One writable configuration register of the control plane.  Reads return
/// the currently staged value; writes stage a new one (masked to `width`).
struct control_entry {
    std::string name;
    unsigned width = 16;
    std::function<std::uint64_t()> read;
    std::function<void(std::uint64_t)> write;
};

class register_map {
public:
    register_map();

    /// \brief Register a scalar value (one top-level mux input).  Its
    /// value slot starts at 0.
    /// \param name      map-wide unique name, e.g. "cusum.s_final"
    /// \param width     value width in bits, in [1, 64]
    /// \param is_signed two's-complement interpretation for read_value()
    /// \throws std::invalid_argument naming the entry when the width is
    ///         outside [1, 64] or the name is already on the result plane
    void add_scalar(std::string name, unsigned width, bool is_signed);

    /// \brief Register one element of a sub-addressed group (bank /
    /// counter-file read port); the whole group occupies a single
    /// top-level mux input.  Same rules as add_scalar().
    /// \param group     group name shared by all elements (non-empty)
    /// \param name      map-wide unique name, e.g. "serial.nu_m[3]"
    /// \param width     value width in bits, in [1, 64]
    /// \param is_signed two's-complement interpretation for read_value()
    void add_group_element(std::string group, std::string name,
                           unsigned width, bool is_signed);

    std::size_t size() const { return entries_.size(); }
    const map_entry& entry(std::size_t index) const;
    const std::vector<map_entry>& entries() const { return entries_; }

    /// Index of the entry called `name`, throws if absent.
    std::size_t index_of(const std::string& name) const;

    /// \brief Stamp of the result plane's entry list, unique process-wide:
    /// every add_scalar / add_group_element and every freshly constructed
    /// map takes a new one, so equal stamps mean the same entries in the
    /// same order (a copy shares its source's stamp).  Consumers that
    /// resolve entry positions once (core::software_runner) rebind when
    /// it changes.
    std::uint64_t layout() const { return layout_; }

    /// \brief The value file: one raw slot per entry, in registration
    /// order.  The testing block writes it when it captures its engines;
    /// bits above an entry's width are ignored on read.
    std::span<std::uint64_t> values() { return values_; }
    std::span<const std::uint64_t> values() const { return values_; }

    /// Raw value (two's complement in `width` bits for signed entries).
    std::uint64_t read_raw(std::size_t index) const;
    /// Sign-extended value for signed entries, plain value otherwise.
    std::int64_t read_value(std::size_t index) const;
    std::int64_t read_value(const std::string& name) const;

    /// Number of inputs the top-level readout mux needs: one per scalar
    /// plus one per distinct group.
    unsigned top_level_inputs() const;

    /// Widest value in the map (the readout mux data width).
    unsigned max_width() const;

    /// Total 16-bit words the software must read to fetch every value --
    /// the READ instruction count of a full collection pass.
    unsigned total_words(unsigned word_bits = 16) const;

    // -- control plane (writable configuration registers) ------------------

    /// \brief Register a writable control register.
    /// \param name  control-plane unique name, e.g. "cfg.log2_n"
    /// \param width value width in bits, in [1, 64]; writes are masked
    /// \param read  getter returning the currently staged value
    /// \param write setter staging a new value (receives the masked value)
    /// \throws std::invalid_argument naming the register when the width is
    ///         outside [1, 64], the name is already on the control plane
    ///         or a callback is missing
    void add_control(std::string name, unsigned width,
                     std::function<std::uint64_t()> read,
                     std::function<void(std::uint64_t)> write);

    std::size_t control_count() const { return controls_.size(); }
    const control_entry& control(std::size_t index) const;
    const std::vector<control_entry>& controls() const { return controls_; }

    /// Index of the control register called `name`, throws if absent.
    std::size_t control_index_of(const std::string& name) const;

    /// \brief Write a control register (value masked to its width).  Safe
    /// against self-modifying writes: the setter is copied out of the map
    /// before it runs, so a write that rebuilds the map (the reconfigure
    /// strobe) does not destroy the function mid-call.
    void write_control(std::size_t index, std::uint64_t value);
    void write_control(const std::string& name, std::uint64_t value);

    /// Currently staged value of a control register (masked to width).
    std::uint64_t read_control(std::size_t index) const;
    std::uint64_t read_control(const std::string& name) const;

private:
    std::vector<map_entry> entries_;
    std::vector<std::uint64_t> values_;
    std::vector<control_entry> controls_;
    std::uint64_t layout_;

    void add_entry(map_entry entry);
};

} // namespace otf::hw
