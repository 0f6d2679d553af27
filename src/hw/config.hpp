// Configuration of one hardware testing block.
//
// The paper proposes eight designs spanning three sequence lengths
// (128 / 65536 / 1048576 bits) and three tiers (light / medium / high),
// each including a subset of the nine tests.  `block_config` captures one
// such design point; the named paper variants live in core/design_config.
// All block lengths are powers of two (sharing trick 2) so every boundary
// falls out of the global bit counter.
#pragma once

#include <bitset>
#include <cstdint>
#include <string>
#include <string_view>

namespace otf::hw {

/// NIST test numbers the platform supports (Table I rows marked "Yes").
enum class test_id : unsigned {
    frequency = 1,
    block_frequency = 2,
    runs = 3,
    longest_run = 4,
    non_overlapping_template = 7,
    overlapping_template = 8,
    serial = 11,
    approximate_entropy = 12,
    cumulative_sums = 13,
};

/// Every supported test, in test-number order.
inline constexpr test_id all_tests[] = {
    test_id::frequency,
    test_id::block_frequency,
    test_id::runs,
    test_id::longest_run,
    test_id::non_overlapping_template,
    test_id::overlapping_template,
    test_id::serial,
    test_id::approximate_entropy,
    test_id::cumulative_sums,
};

/// The test's name in verdicts, tallies and logs.
constexpr std::string_view to_string(test_id id)
{
    switch (id) {
    case test_id::frequency: return "frequency";
    case test_id::block_frequency: return "block_frequency";
    case test_id::runs: return "runs";
    case test_id::longest_run: return "longest_run";
    case test_id::non_overlapping_template: return "non_overlapping_template";
    case test_id::overlapping_template: return "overlapping_template";
    case test_id::serial: return "serial";
    case test_id::approximate_entropy: return "approximate_entropy";
    case test_id::cumulative_sums: return "cumulative_sums";
    }
    return "?";
}

/// Set of enabled tests, indexed by NIST test number.
class test_set {
public:
    test_set() = default;
    test_set& with(test_id id)
    {
        bits_.set(static_cast<unsigned>(id));
        return *this;
    }
    bool has(test_id id) const { return bits_.test(static_cast<unsigned>(id)); }
    unsigned count() const { return static_cast<unsigned>(bits_.count()); }

    /// Raw bitmask (bit i = NIST test i) -- the value the control plane's
    /// `cfg.tests` register carries during on-the-fly reconfiguration.
    std::uint16_t to_raw() const
    {
        return static_cast<std::uint16_t>(bits_.to_ulong());
    }
    static test_set from_raw(std::uint16_t raw)
    {
        test_set s;
        s.bits_ = std::bitset<16>(raw);
        return s;
    }

    friend bool operator==(const test_set& a, const test_set& b)
    {
        return a.bits_ == b.bits_;
    }

private:
    std::bitset<16> bits_;
};

struct block_config {
    std::string name;          ///< design-point label, e.g. "n=65536 high"
    unsigned log2_n = 16;      ///< sequence length n = 2^log2_n
    test_set tests;

    // -- test 2: frequency within a block ---------------------------------
    unsigned bf_log2_m = 12;   ///< block length M = 2^bf_log2_m

    // -- test 4: longest run of ones in a block ----------------------------
    unsigned lr_log2_m = 7;    ///< block length
    unsigned lr_v_lo = 4;      ///< first category: longest run <= v_lo
    unsigned lr_v_hi = 9;      ///< last category: longest run >= v_hi

    // -- tests 7/8: template matching (shared 9-bit shift register) --------
    unsigned template_length = 9;
    std::uint32_t t7_template = 0b000000001; ///< aperiodic NIST template
    unsigned t7_log2_m = 13;   ///< non-overlapping block length
    std::uint32_t t8_template = 0b111111111; ///< all-ones (NIST choice)
    unsigned t8_log2_m = 10;   ///< overlapping block length
    unsigned t8_max_count = 5; ///< last category: >= 5 occurrences

    // -- tests 11/12: serial & approximate entropy (shared counters) -------
    unsigned serial_m = 4;     ///< top pattern length (test 12 uses m-1 = 3)
    /// Interface-reduction option (Section III-C: "we can save resources
    /// by reducing the number of transmitted values"): when set, only the
    /// m-bit counter file is memory-mapped and software derives the
    /// (m-1)- and (m-2)-bit counts as cyclic marginals (nu_{k-1}[p] =
    /// nu_k[2p] + nu_k[2p+1]), trading ~2^m extra ADDs for a smaller
    /// readout mux and fewer bus words.  The 2^{m-1} + 2^{m-2} hardware
    /// counters remain (they are not the cost driver); only their read
    /// ports and map entries disappear.
    bool serial_transfer_marginals = false;

    /// Continuous-operation option: latch every mapped value into shadow
    /// registers at the end of the sequence, so the counters can restart
    /// on the next window immediately while software reads the previous
    /// results.  The paper runs the tests "all the time"; gap-free
    /// operation costs exactly this result latch (one FF per mapped bit),
    /// which the resource model makes visible.  Without it, the block
    /// must hold its counters until the software pass completes.
    bool double_buffered = false;

    std::uint64_t n() const { return std::uint64_t{1} << log2_n; }

    /// \brief Check the design point for internal consistency.
    /// \throws std::invalid_argument when parameters are inconsistent
    /// (no test or an unsupported test number enabled, block longer than
    /// sequence, categories out of range, template not representable, ...)
    void validate() const;
};

} // namespace otf::hw
