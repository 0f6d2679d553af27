// Instruction-level model of an openMSP430-class 16-bit microcontroller.
//
// The paper evaluates its software latency by running the routines on an
// openMSP430 soft core ([17]).  This module provides the equivalent
// executable platform: a 16-register, 16-bit RISC core with the MSP430's
// dual-operand / single-operand / jump instruction classes, status flags,
// per-instruction cycle costs following the MSP430 family user's guide
// (register ops 1 cycle, memory operands add fetch cycles), a
// memory-mapped hardware multiplier peripheral, and a peripheral window
// through which the testing block's register map is read -- so the
// quick-test firmware in firmware.hpp executes instruction by instruction
// against real hardware counter values.
//
// Programs are held in decoded form (see program.hpp); the cycle
// accounting, not the binary encoding, is what Table IV measures.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace otf::msp430 {

enum class opcode : std::uint8_t {
    // Format I, dual operand.
    mov,
    add,
    addc,
    sub,
    subc,
    cmp,
    bit,
    bic,
    bis,
    xor_,
    and_,
    // Format II, single operand.
    rra,  ///< arithmetic shift right through nothing (C gets LSB)
    rrc,  ///< rotate right through carry
    swpb, ///< swap bytes
    sxt,  ///< sign-extend low byte
    push,
    call,
    // Jumps (PC-relative by instruction index in this model).
    jmp,
    jz,
    jnz,
    jc,
    jnc,
    jn,
    jge,
    jl,
    // Control.
    ret,
    halt,
};

enum class mode : std::uint8_t {
    none,      ///< operand absent
    reg,       ///< Rn
    indexed,   ///< x(Rn) -- offset word in memory
    absolute,  ///< &addr
    indirect,  ///< @Rn
    post_inc,  ///< @Rn+
    immediate, ///< #value
};

struct operand {
    mode addressing = mode::none;
    std::uint8_t reg = 0;       ///< register number for reg modes
    std::uint16_t value = 0;    ///< immediate / offset / absolute address
};

struct instruction {
    opcode op = opcode::halt;
    operand src;
    operand dst;
    std::int32_t target = -1;   ///< jump/call target (instruction index)
};

/// Status flags (subset of SR).
struct flags {
    bool carry = false;
    bool zero = false;
    bool negative = false;
    bool overflow = false;
};

class cpu {
public:
    static constexpr std::uint16_t multiplier_op1 = 0x0130;
    static constexpr std::uint16_t multiplier_op2 = 0x0138;
    static constexpr std::uint16_t multiplier_reslo = 0x013A;
    static constexpr std::uint16_t multiplier_reshi = 0x013C;
    /// Peripheral window where the testing block's words appear (high
    /// memory, clear of RAM data and stack).
    static constexpr std::uint16_t testing_block_base = 0xFE00;

    cpu();

    /// Word-granular data memory (RAM + peripherals), 64 KiB address
    /// space; addresses must be even.
    std::uint16_t read_word(std::uint16_t address) const;
    void write_word(std::uint16_t address, std::uint16_t value);

    std::uint16_t reg(unsigned index) const { return registers_.at(index); }
    const flags& status() const { return flags_; }

    /// Hook invoked for reads in [testing_block_base, 0xFFFF): returns the
    /// peripheral word, or falls through to RAM when unset.
    using peripheral_reader =
        std::function<std::uint16_t(std::uint16_t address)>;
    void map_peripheral(peripheral_reader reader)
    {
        peripheral_ = std::move(reader);
    }

    /// Execute `program` from instruction 0 until HALT (or the step
    /// budget runs out -> throws).  Returns consumed CPU cycles.
    std::uint64_t run(const std::vector<instruction>& program,
                      std::uint64_t max_steps = 1u << 22);

    std::uint64_t cycles() const { return cycles_; }
    std::uint64_t instructions_retired() const { return retired_; }

private:
    std::array<std::uint16_t, 16> registers_{};
    std::vector<std::uint16_t> memory_; // word-addressed backing store
    flags flags_;
    peripheral_reader peripheral_;
    std::uint64_t cycles_ = 0;
    std::uint64_t retired_ = 0;

    std::uint16_t fetch_operand(const operand& op, unsigned& cycle_cost);
    void store_result(const operand& op, std::uint16_t value,
                      unsigned& cycle_cost);
    void set_nz(std::uint16_t value);
};

} // namespace otf::msp430
