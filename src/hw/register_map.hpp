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
// The map is the result plane only.  The writable configuration
// registers through which software reconfigures the block on the fly live
// on the MCU's peripheral write bus, not behind the readout mux, and
// belong to testing_block (write_control / read_control); what the map
// accounts for (top_level_inputs / max_width / total_words) is exactly
// the Table III interface.
#pragma once

#include <cstdint>
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

class register_map {
public:
    register_map();

    /// \brief Register a scalar value (one top-level mux input).  Its
    /// value slot starts at 0.
    /// \param name      map-wide unique name, e.g. "cusum.s_final"
    /// \param width     value width in bits, in [1, 64]
    /// \param is_signed two's-complement interpretation for read_value()
    /// \throws std::invalid_argument naming the entry when the width is
    ///         outside [1, 64] or the name is already in the map
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

private:
    std::vector<map_entry> entries_;
    std::vector<std::uint64_t> values_;
    std::uint64_t layout_;

    void add_entry(map_entry entry);
};

} // namespace otf::hw
