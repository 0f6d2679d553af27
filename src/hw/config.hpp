// Configuration of one hardware testing block.
//
// The paper proposes eight designs spanning three sequence lengths
// (128 / 65536 / 1048576 bits) and three tiers (light / medium / high),
// each including a subset of the nine tests.  `block_config` captures one
// such design point; the named paper variants live in core/design_config.
// All block lengths are powers of two (sharing trick 2) so every boundary
// falls out of the global bit counter.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

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

/// Failure count per test, indexed by test id (one slot per NIST test
/// number up to 13; the unsupported numbers' slots stay 0).  Names appear
/// only where a tally is printed: walk `all_tests`, name with `to_string`.
class test_tally {
public:
    std::uint64_t& operator[](test_id id) { return counts_[index(id)]; }
    std::uint64_t operator[](test_id id) const { return counts_[index(id)]; }
    test_tally& operator+=(const test_tally& other)
    {
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            counts_[i] += other.counts_[i];
        }
        return *this;
    }
    friend bool operator==(const test_tally&, const test_tally&) = default;

private:
    static unsigned index(test_id id) { return static_cast<unsigned>(id); }
    std::array<std::uint64_t, 14> counts_{};
};

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
    /// sequence, categories out of range, template not representable,
    /// any field -- of an enabled test or not -- wider than its
    /// config_registers entry, ...)
    void validate() const;

    bool operator==(const block_config&) const = default;
};

/// \brief One staged design register: its name on the control bus, its
/// width, and how it maps onto block_config.
struct config_register {
    std::string_view name;
    unsigned width;
    std::uint64_t (*get)(const block_config&);
    void (*set)(block_config&, std::uint64_t);
};

namespace detail {

template <auto Member>
constexpr config_register field(std::string_view name, unsigned width)
{
    return {name, width,
            [](const block_config& c) {
                return static_cast<std::uint64_t>(c.*Member);
            },
            [](block_config& c, std::uint64_t v) {
                c.*Member = static_cast<
                    std::remove_reference_t<decltype(c.*Member)>>(v);
            }};
}

} // namespace detail

/// \brief The one list of a design point's fields: every block_config
/// field but the label (a software-side name, not a hardware parameter).
/// The testing block's control plane stages a design through it and the
/// telemetry log writes one with it, so a field added here is staged,
/// reprogrammed, logged and replayed everywhere.
inline constexpr config_register config_registers[] = {
    detail::field<&block_config::log2_n>("cfg.log2_n", 5),
    {"cfg.tests", 16,
     [](const block_config& c) {
         return static_cast<std::uint64_t>(c.tests.to_raw());
     },
     [](block_config& c, std::uint64_t v) {
         c.tests = test_set::from_raw(static_cast<std::uint16_t>(v));
     }},
    detail::field<&block_config::bf_log2_m>("cfg.bf_log2_m", 5),
    detail::field<&block_config::lr_log2_m>("cfg.lr_log2_m", 5),
    // The longest-run category bounds are validated up to the block
    // length 2^lr_log2_m (lr_log2_m < 30), and template_length up to 16:
    // the register widths must cover the whole validated domain or a
    // legal target would be silently truncated on the bus.
    detail::field<&block_config::lr_v_lo>("cfg.lr_v_lo", 30),
    detail::field<&block_config::lr_v_hi>("cfg.lr_v_hi", 30),
    detail::field<&block_config::template_length>("cfg.template_length", 5),
    detail::field<&block_config::t7_template>("cfg.t7_template", 16),
    detail::field<&block_config::t7_log2_m>("cfg.t7_log2_m", 5),
    detail::field<&block_config::t8_template>("cfg.t8_template", 16),
    detail::field<&block_config::t8_log2_m>("cfg.t8_log2_m", 5),
    detail::field<&block_config::t8_max_count>("cfg.t8_max_count", 4),
    detail::field<&block_config::serial_m>("cfg.serial_m", 4),
    {"cfg.options", 2,
     [](const block_config& c) {
         return std::uint64_t{(c.serial_transfer_marginals ? 1u : 0u)
                              | (c.double_buffered ? 2u : 0u)};
     },
     [](block_config& c, std::uint64_t v) {
         c.serial_transfer_marginals = (v & 1u) != 0;
         c.double_buffered = (v & 2u) != 0;
     }},
};

} // namespace otf::hw
