// The software half of every test (the right-hand column of Table II).
//
// `software_runner` is the program that runs on the embedded platform: it
// reads the hardware counter values over the memory-mapped interface and
// verifies the randomness hypothesis using only add/subtract/multiply/
// square/shift/compare instructions plus the PWL table -- no erfc, no
// gamma, no division.  Each routine is one body, templated on the CPU.
// On a `sw16::soft_cpu` it computes the exact result and charges the
// 16-bit instruction costs that regenerate the SW section of Table III.
// On a `sw16::native_cpu` it computes the same result in plain integers
// and records its data-dependent decisions; with every operand width
// fixed by the binding, that record and the word width decide the
// charges, so the runner replays them from a per-routine memo and runs
// the soft_cpu only on a decision path it has not seen.
//
// There is deliberately no single alarm output: the result is a list of
// per-test verdicts with their raw statistics (the anti-fault-attack
// property discussed in the paper's introduction).  A verdict is a test id
// and numbers; the list holds them inline, so a window's pass allocates
// nothing.
#pragma once

#include "core/critical_values.hpp"
#include "hw/config.hpp"
#include "hw/register_map.hpp"
#include "sw16/cpu.hpp"

#include <array>
#include <iterator>
#include <span>
#include <string_view>
#include <vector>

namespace otf::core {

struct test_verdict {
    hw::test_id id{};
    /// hw::to_string(id); kept for the benchmark's report comparison.
    std::string_view name;
    bool pass = false;
    /// The integer statistic the software computed.
    std::int64_t statistic = 0;
    /// The precomputed constant it was compared against.
    std::int64_t bound = 0;
};

/// One verdict per enabled test, in test-number order, held inline.
class verdict_list {
public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const test_verdict& operator[](std::size_t i) const { return items_[i]; }
    test_verdict& front() { return items_[0]; }
    const test_verdict* begin() const { return items_.data(); }
    const test_verdict* end() const { return items_.data() + size_; }

private:
    friend class software_runner;
    std::array<test_verdict, std::size(hw::all_tests)> items_{};
    std::size_t size_ = 0;
};

struct software_result {
    verdict_list verdicts;
    bool all_pass = true;
    /// Every instruction the pass charged: the collection READs, the
    /// derived marginals and all test routines.
    sw16::op_counts total_ops;

    const test_verdict* find(hw::test_id id) const;
};

/// The software pass of one design point.  It resolves where each value
/// it reads sits in the register map once per map layout
/// (hw::register_map::layout()): a scalar by its name, a counter file by
/// the index of its element 0 plus a count.  It keeps a reused flat
/// store, so a window's pass reads the map by index, with no name
/// lookups and no allocation.  It also keeps, per enabled routine, the
/// charges of the decision paths it has run, for the binding and word
/// width at hand.  That cached state makes run() stateful: use one
/// runner per monitor and never share one across threads.
class software_runner {
public:
    /// \brief Bind the software pass to one design point.
    /// \param cfg the design whose tests the pass must verify
    /// \param cv  precomputed integer acceptance bounds for that design
    /// \throws std::invalid_argument when `cv` was inverted for another
    /// design point (critical_values::design), naming `cfg` and the
    /// fields in which the two differ
    software_runner(hw::block_config cfg, critical_values cv);

    const hw::block_config& config() const { return cfg_; }
    const critical_values& bounds() const { return cv_; }

    /// \brief Full pass: read the interface, run every enabled test's
    /// routine.  Once bound to the map's layout, the pass allocates
    /// nothing.
    /// \param map the testing block's memory-mapped counter values
    /// \param cpu instruction-accounting CPU charged with every READ and
    ///            every arithmetic instruction of the pass, at its
    ///            word_bits()
    /// \return per-test verdicts with raw statistics and op counts
    /// \throws std::out_of_range naming the first value the design needs
    /// that `map` lacks
    software_result run(const hw::register_map& map,
                        sw16::soft_cpu& cpu) const;

private:
    /// One counter file: `count` consecutive slots of store_ from `base`.
    struct file_slots {
        std::size_t base = 0;
        std::size_t count = 0;
    };

    /// Positions in store_ of every value the routines read, resolved by
    /// name for one map layout.
    struct binding {
        std::uint64_t layout = 0; ///< 0: not bound yet (no map has it)
        std::size_t s_final = 0;
        std::size_t s_max = 0;
        std::size_t s_min = 0;
        std::size_t n_runs = 0;
        file_slots eps;   ///< block_frequency.eps
        file_slots lr_nu; ///< longest_run.nu
        file_slots t7_w;  ///< non_overlapping.w
        file_slots t8_nu; ///< overlapping.nu_temp
        file_slots nu_m;  ///< serial.nu_m
        file_slots nu_m1; ///< serial.nu_m1
        file_slots nu_m2; ///< serial.nu_m2
        /// Entries in the map; derived marginals sit past them.
        std::size_t mapped = 0;
        /// serial_transfer_marginals: nu_m1/nu_m2 are derived from nu_m.
        bool derive_marginals = false;
        /// Routines whose abs() operands differ in width, so the native
        /// trace does not key their charges: charged on a soft_cpu.
        hw::test_set unkeyed;
    };

    /// Every routine's constant operands, sized once per runner: the
    /// acceptance bounds, the t4/t8 weights and the runs-interval limits
    /// (the program's immediates; reading them charges nothing).
    struct operands {
        sw16::reg t1_bound;
        sw16::reg t2_block_len;
        sw16::reg t2_bound;
        sw16::reg t3_prereq;
        sw16::reg t3_n;
        std::vector<sw16::reg> t3_ones_hi;
        std::vector<sw16::reg> t3_runs_lo;
        std::vector<sw16::reg> t3_runs_hi;
        std::vector<sw16::reg> t4_weights;
        sw16::reg t4_bound;
        sw16::reg t7_mu;
        sw16::reg t7_bound;
        std::vector<sw16::reg> t8_weights;
        sw16::reg t8_bound;
        sw16::reg t11_bound1;
        sw16::reg t11_bound2;
        sw16::reg t12_bound;
        sw16::reg t13_bound;
    };

    /// How the collection pass reads one mapped value, resolved once per
    /// layout from its map_entry.
    struct value_read {
        unsigned shift = 0; ///< 64 - width: drops the bits above it
        bool is_signed = false;
    };

    /// What one routine charged on one decision path.
    struct memo_slot {
        std::uint64_t trace = 0; ///< sw16::native_cpu::trace(); 0: empty
        sw16::op_counts ops;
    };
    /// Direct-mapped slots per enabled routine, indexed by a hash of the
    /// trace; a colliding path overwrites the slot.
    static constexpr std::size_t memo_slots = 64;

    hw::block_config cfg_;
    critical_values cv_;
    operands consts_;
    mutable binding binding_;
    /// One per mapped entry, in map order.
    mutable std::vector<value_read> reads_;
    /// The collection pass's values: one slot per mapped entry in map
    /// order, then the derived marginals (reused across windows).  The
    /// widths are fixed at bind(); a window writes the values.
    mutable std::vector<sw16::reg> store_;
    /// memo_slots per enabled routine, in test-number order.
    mutable std::vector<memo_slot> memo_;
    /// Word width of the memo's and collect_ops_'s charges (0: none).
    mutable unsigned memo_word_bits_ = 0;
    /// What the collection pass charges at memo_word_bits_.
    mutable sw16::op_counts collect_ops_;

    void bind(const hw::register_map& map) const;
    /// Charge the collection pass once at `word_bits` and empty the memo.
    void price(unsigned word_bits) const;
    void collect(const hw::register_map& map) const;
    /// The interface-reduction option's marginals on `cpu`: a soft_cpu
    /// sizes and charges them, a native_cpu writes their values.
    template <typename Cpu> void derive_marginals(Cpu& cpu) const;
    /// The collected values of one counter file.
    std::span<const sw16::reg> file(const file_slots& slots) const
    {
        return {store_.data() + slots.base, slots.count};
    }

    /// One routine on plain integers, its charges replayed from `slots`
    /// (or, on a path not there, charged on a soft_cpu that fills it) and
    /// added to `ops`; with no `slots`, the soft_cpu run alone.
    test_verdict run_charged(hw::test_id id, memo_slot* slots,
                             sw16::op_counts& ops) const;
    template <typename Cpu>
    test_verdict run_test(hw::test_id id, Cpu& cpu) const;

    // The routines fill everything but the verdict's id and name.
    template <typename Cpu> test_verdict run_frequency(Cpu& cpu) const;
    template <typename Cpu> test_verdict run_block_frequency(Cpu& cpu) const;
    template <typename Cpu> test_verdict run_runs(Cpu& cpu) const;
    template <typename Cpu> test_verdict run_longest_run(Cpu& cpu) const;
    template <typename Cpu> test_verdict run_non_overlapping(Cpu& cpu) const;
    template <typename Cpu> test_verdict run_overlapping(Cpu& cpu) const;
    template <typename Cpu> test_verdict run_serial(Cpu& cpu) const;
    template <typename Cpu>
    test_verdict run_approximate_entropy(Cpu& cpu) const;
    template <typename Cpu>
    test_verdict run_cumulative_sums(Cpu& cpu) const;
};

} // namespace otf::core
