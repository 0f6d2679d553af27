// Bit-sliced testing block: 64 fleet channels advance per instruction.
//
// The scalar testing block models the paper's deployment -- one engine set
// per TRNG.  A fleet of identical channels running only the cheap always-on
// tests (frequency, runs, and the SP 800-90B continuous tests) can instead
// be *transposed*: pack bit i of every 64-bit machine word with channel
// i's current stream bit (one "time plane" per step), and every bitwise
// instruction then advances all 64 channels by one clock at once.
//
//   - frequency / runs accumulate into vertical ripple-carry counters
//     (bit w of plane `count[w]` is bit w of channel i's counter), so one
//     XOR/AND pair increments 64 channel counters;
//   - the repetition-count test keeps its per-channel run length in a
//     saturating vertical counter, resets it with one AND against the
//     "same bit as before" plane, and compares all 64 runs against the
//     cutoff with one sliced magnitude comparison;
//   - the adaptive-proportion test latches its per-channel reference bit
//     as a plane and counts matches the same way.
//
// Every statistic is register-exact with 64 independent scalar engines
// fed the same per-channel streams -- tests/test_kernel_oracle.cpp pins
// the equivalence.  core::fleet_monitor routes groups of 64 eligible
// channels here when fleet_config::lane == ingest_lane::sliced; heavy
// designs (templates, serial, block statistics) stay on the scalar span
// lane.
#pragma once

#include <cstdint>
#include <vector>

namespace otf::hw {

/// \brief Parameters of one bit-sliced channel group.
struct sliced_config {
    /// Window length per channel in bits; a multiple of 64, at least 64
    /// (the lane advances in whole 64-step transposed chunks).
    std::uint64_t n = std::uint64_t{1} << 16;
    /// Run the SP 800-90B repetition-count test continuously (across
    /// window restarts) on every channel.
    bool rct = false;
    unsigned rct_cutoff = 21; ///< alarm threshold, at least 2
    /// Run the adaptive-proportion test continuously on every channel.
    bool apt = false;
    /// APT window exponent, in [6, 16]: sub-64-bit windows cannot ride
    /// the 64-step transposed chunks (the scalar engine accepts [4, 16]).
    unsigned apt_log2_window = 10;
    unsigned apt_cutoff = 2; ///< alarm threshold; must fit in the window

    /// \throws std::invalid_argument on any violated bound above
    void validate() const;
};

class sliced_block {
public:
    /// Channels per group -- the machine word width the lane is sliced
    /// across.
    static constexpr unsigned lanes = 64;

    /// \throws std::invalid_argument via sliced_config::validate()
    explicit sliced_block(sliced_config cfg);

    const sliced_config& config() const { return cfg_; }

    /// \brief One time step for all 64 channels: bit i of `plane` is
    /// channel i's next stream bit.
    /// \throws std::logic_error when the current window is already full
    void step(std::uint64_t plane);

    /// \brief 64 time steps from channel-major words: `channel_words[i]`
    /// holds channel i's next 64 stream bits LSB-first (the natural
    /// fill_words layout).  With health tests configured it transposes to
    /// time planes in place and steps; without them the whole chunk
    /// collapses into one sliced multi-bit add per statistic (bit-exact
    /// with 64 step() calls -- tests/test_kernel_oracle.cpp pins it).
    /// \throws std::logic_error when 64 steps would overrun the window
    void feed_chunk(const std::uint64_t channel_words[lanes]);

    /// \brief Feed a channel-major tile: `tile[i * stride + k]` holds
    /// channel i's k-th word, for `words_per_channel` words per channel
    /// (at most 64).  The fused fleet lane stages generation through a
    /// cache-resident 64x64-word tile and hands it over in one call.
    /// Without health tests the whole tile collapses into one
    /// transpose and one sliced multi-bit add per statistic -- the
    /// per-word popcounts are summed channel-side first, so the
    /// transpose cost is amortized over up to 64 words per channel
    /// instead of paid per word as in feed_chunk().  Bit-exact with
    /// words_per_channel feed_chunk() calls (tests/test_kernel_oracle
    /// .cpp pins it).
    /// \throws std::invalid_argument when words_per_channel exceeds 64
    /// \throws std::logic_error when the tile would overrun the window
    void feed_tile(const std::uint64_t* tile, std::size_t stride,
                   std::size_t words_per_channel);

    /// \brief Window boundary: clear the per-window statistics
    /// (frequency / runs).  The continuous health tests keep their state
    /// -- like the scalar engines, they live outside the window cycle.
    void restart();

    /// Bits consumed per channel in the current window.
    std::uint64_t window_bits() const { return window_bits_; }
    /// Bits consumed per channel since construction (health-test clock).
    std::uint64_t bits_consumed() const { return total_bits_; }

    // Per-window statistics (channel in [0, 64)).
    std::uint64_t ones(unsigned channel) const;
    /// Final cusum walk value 2 * ones - window_bits (what the scalar
    /// block's cusum.s_final register reads at the window end).
    std::int64_t s_final(unsigned channel) const;
    /// Runs counted exactly as runs_hw: the first bit opens run one,
    /// every transition opens another.
    std::uint64_t n_runs(unsigned channel) const;

    // Continuous repetition-count state (throws std::logic_error unless
    // configured with rct = true).
    bool rct_alarm(unsigned channel) const;
    std::uint64_t rct_current_run(unsigned channel) const;
    std::uint64_t rct_longest_run(unsigned channel) const;

    // Continuous adaptive-proportion state (throws std::logic_error
    // unless configured with apt = true).
    bool apt_alarm(unsigned channel) const;
    std::uint64_t apt_current_count(unsigned channel) const;

private:
    std::uint64_t gather(const std::vector<std::uint64_t>& planes,
                         unsigned channel) const;
    /// Fold the current APT window's (monotone) count into the sticky
    /// alarm plane -- called at window boundaries and from the accessor,
    /// which keeps the per-step cost at one vertical add.
    void apt_check() const;

    sliced_config cfg_;
    std::uint64_t window_bits_ = 0;
    std::uint64_t total_bits_ = 0;

    // Frequency / runs vertical counters (planes [0, width), LSB first).
    unsigned stat_width_;
    std::vector<std::uint64_t> ones_count_;
    std::vector<std::uint64_t> runs_count_;
    std::uint64_t runs_prev_ = 0;
    bool runs_primed_ = false;

    // Repetition count: saturating vertical run counter, sliced longest
    // tracker, sticky alarm plane.
    unsigned rct_width_ = 0;
    std::vector<std::uint64_t> rct_run_;
    std::vector<std::uint64_t> rct_longest_;
    std::uint64_t rct_prev_ = 0;
    bool rct_primed_ = false;
    std::uint64_t rct_alarm_ = 0;

    // Adaptive proportion: reference plane, vertical match counter,
    // sticky alarm plane (lazily folded -- see apt_check()).
    unsigned apt_width_ = 0;
    std::vector<std::uint64_t> apt_count_;
    std::uint64_t apt_reference_ = 0;
    mutable std::uint64_t apt_alarm_ = 0;
};

} // namespace otf::hw
