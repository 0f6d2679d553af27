// Quick-test firmware for the software platform.
//
// The paper's fast-detection tier -- the frequency test and both
// cumulative-sums modes, plus the derivation of N_ones from the walk's
// final value (sharing trick 1) -- written as an actual MSP430 program
// and executed instruction by instruction on the CPU model against the
// register map of a finished testing block.  This turns Table IV's software
// latency from a cost-model estimate into an execution measurement.
//
// The full nine-test routine set remains on the instruction-accounting
// path (core/sw_routines.cpp); this firmware demonstrates the
// cycle-accurate end of the methodology on the always-on tests.
#pragma once

#include "core/critical_values.hpp"
#include "hw/config.hpp"
#include "hw/register_map.hpp"
#include "msp430/program.hpp"

#include <cstdint>
#include <utility>
#include <vector>

namespace otf::msp430 {

/// Bus adapter: serve the testing block's register map as consecutive
/// 16-bit words at cpu::testing_block_base (sign-extended values split
/// little-endian word by word).
cpu::peripheral_reader make_bus_adapter(const hw::register_map& map);

/// Peripheral word address of word `word_index` of the named map entry.
std::uint16_t word_address_of(const hw::register_map& map,
                              const std::string& name, unsigned word_index);

struct quick_test_firmware {
    std::vector<instruction> program;
    /// (address, value) pairs to preload into RAM before running --
    /// the precomputed critical values and n.
    std::vector<std::pair<std::uint16_t, std::uint16_t>> data;

    // Result locations (1 = pass, 0 = fail; ones as a 32-bit value).
    std::uint16_t frequency_verdict_addr = 0;
    std::uint16_t cusum_verdict_addr = 0;
    std::uint16_t ones_lo_addr = 0;
    std::uint16_t ones_hi_addr = 0;
};

/// Build the firmware for a given design and its critical values; the
/// design must include the frequency and cumulative-sums tests.
quick_test_firmware build_quick_test_firmware(
    const hw::block_config& cfg, const core::critical_values& cv,
    const hw::register_map& map);

/// Convenience: preload the data section and run the firmware on `core`
/// against `map`; returns consumed cycles.
std::uint64_t run_quick_tests(cpu& core, const quick_test_firmware& fw,
                              const hw::register_map& map);

} // namespace otf::msp430
