// The software half of every test (the right-hand column of Table II).
//
// `software_runner` is the program that runs on the embedded platform: it
// reads the hardware counter values over the memory-mapped interface and
// verifies the randomness hypothesis using only add/subtract/multiply/
// square/shift/compare instructions plus the PWL table -- no erfc, no
// gamma, no division.  Every routine executes against a `sw16::soft_cpu`,
// which both computes the exact result and charges the 16-bit instruction
// costs that regenerate the SW section of Table III.
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
/// lookups and no allocation.  That cached binding
/// makes run() stateful: use one runner per monitor and never share one
/// across threads.
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
    /// \param cpu instruction-accounting CPU that executes (and charges)
    ///            every READ and every arithmetic instruction
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
        unsigned width = 0;
        unsigned shift = 0; ///< 64 - width: drops the bits above it
        bool is_signed = false;
    };

    hw::block_config cfg_;
    critical_values cv_;
    operands consts_;
    mutable binding binding_;
    /// One per mapped entry, in map order.
    mutable std::vector<value_read> reads_;
    /// The collection pass's values: one slot per mapped entry in map
    /// order, then the derived marginals (reused across windows).
    mutable std::vector<sw16::reg> store_;

    void bind(const hw::register_map& map) const;
    void collect(const hw::register_map& map, sw16::soft_cpu& cpu) const;
    /// The collected values of one counter file.
    std::span<const sw16::reg> file(const file_slots& slots) const
    {
        return {store_.data() + slots.base, slots.count};
    }

    // The routines fill everything but the verdict's id and name.
    test_verdict run_frequency(sw16::soft_cpu& cpu) const;
    test_verdict run_block_frequency(sw16::soft_cpu& cpu) const;
    test_verdict run_runs(sw16::soft_cpu& cpu) const;
    test_verdict run_longest_run(sw16::soft_cpu& cpu) const;
    test_verdict run_non_overlapping(sw16::soft_cpu& cpu) const;
    test_verdict run_overlapping(sw16::soft_cpu& cpu) const;
    test_verdict run_serial(sw16::soft_cpu& cpu) const;
    test_verdict run_approximate_entropy(sw16::soft_cpu& cpu) const;
    test_verdict run_cumulative_sums(sw16::soft_cpu& cpu) const;
};

} // namespace otf::core
