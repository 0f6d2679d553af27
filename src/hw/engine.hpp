// Base class for the bit-serial test engines.
//
// Every engine implements the *hardware column* of the paper's Table II for
// one statistical test: it observes the random bit stream one bit per clock
// cycle (all updates complete within that cycle) and accumulates the counter
// values that the software half later reads over the memory-mapped
// interface.  Engines never compute P-values or compare against critical
// values -- that is software's job; they expose raw counters through the
// register map, which is also what makes the platform resistant to
// alarm-wire fault attacks (there is no single alarm signal to ground).
#pragma once

#include "hw/register_map.hpp"
#include "rtl/component.hpp"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace otf::hw {

class engine : public rtl::component {
public:
    using rtl::component::component;

    /// \brief One clock cycle: consume the next random bit.
    /// \param bit       the incoming random bit
    /// \param bit_index current value of the global bit counter (0-based
    ///        position of `bit`), from which engines derive block
    ///        boundaries (sharing trick 2: block lengths are powers of
    ///        two, so boundary detection is a decode of the counter's low
    ///        bits, not a private counter)
    virtual void consume(bool bit, std::uint64_t bit_index) = 0;

    /// \brief Packed fast lane: consume a whole packed span at once.  Must
    /// leave the engine in exactly the state that `nbits` consume() calls
    /// would -- the per-bit path is the equivalence oracle, enforced by
    /// tests/test_kernel_oracle.cpp.  A span of 64 bits or fewer is the
    /// single-word case; there is no separate word entry point.  The
    /// default simply loops consume(); engines override it with whole-span
    /// kernels (popcount accumulation, match masks, the walk summary) that
    /// hoist state into locals and commit once per span.
    ///
    /// Overrides may assume nothing about alignment: `bit_index` can fall
    /// anywhere (odd-length chunking), and ragged lengths are legal.
    ///
    /// Engines that watch the testing block's *shared* template window
    /// must return true from watches_shared_window() AND override this,
    /// reconstructing the sliding window locally from its pre-span state:
    /// the block advances the shared register once per span, after
    /// dispatching to the engines, not once per bit -- so the per-bit
    /// default below would read a stale window.  The default enforces
    /// that contract by refusing to run for such engines (loudly, instead
    /// of silently producing wrong counters).
    /// \param words     stream bits packed LSB-first: bit i of words[i/64]
    ///                  is stream bit `bit_index + i`
    /// \param nbits     number of valid bits in the span
    /// \param bit_index global bit counter value at the span's first bit
    virtual void consume_span(const std::uint64_t* words, std::size_t nbits,
                              std::uint64_t bit_index)
    {
        if (watches_shared_window()) {
            throw std::logic_error(
                "engine '" + name()
                + "' watches the shared template window and must override "
                  "consume_span() (the per-bit default would read a stale "
                  "window)");
        }
        for (std::size_t i = 0; i < nbits; ++i) {
            consume(((words[i / 64] >> (i % 64)) & 1u) != 0, bit_index + i);
        }
    }

    /// \brief True for engines that read the testing block's shared
    /// template shift register during consume() (sharing trick 4).
    /// Paired with the consume_span() contract above.
    virtual bool watches_shared_window() const { return false; }

    /// \brief Cyclic-extension flush cycle, fed with the stored opening
    /// bits of the sequence after the real stream has ended.  Only the
    /// serial/approximate-entropy engine uses these; the default is a
    /// no-op.
    /// \param bit a replayed opening bit
    /// \param t   0-based flush cycle index
    virtual void flush(bool bit, unsigned t)
    {
        (void)bit;
        (void)t;
    }

    /// \brief Declare this engine's values on the memory map: one
    /// descriptor per value, no value yet.
    /// \param map the testing block's register map under construction
    virtual void add_registers(register_map& map) const = 0;

    /// \brief Write the current value of every entry add_registers()
    /// declared, in declaration order -- the readout the testing block
    /// captures into the map's value file.
    /// \param out the engine's first value slot
    virtual void read_registers(std::uint64_t* out) const = 0;
};

} // namespace otf::hw
