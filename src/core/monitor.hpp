// On-the-fly monitor: the full embedded system of Fig. 1.
//
// Wires an entropy source, the hardware testing block and the software
// platform together and runs them the way the deployed system would: the
// hardware analyses every bit while the TRNG is producing; at the end of
// each n-bit window the microcontroller reads the counters and verifies the
// randomness hypothesis; the hardware restarts and the next window streams
// while telemetry accumulates.  The tests run continuously -- the paper's
// answer to the "tests change the chip's noise environment" objection --
// and report numeric per-test verdicts rather than one alarm wire.
//
// `windowed_alarm` is the AIS-31-flavoured decision rule on top: a
// sliding window of recent verdicts and a noise-alarm threshold (k
// failures in the last w windows).  One monitored channel -- window loop,
// per-test failure counters and the alarm -- runs through
// core::channel_runner (core/fleet_monitor.hpp).
#pragma once

#include "core/critical_values.hpp"
#include "core/sw_routines.hpp"
#include "hw/testing_block.hpp"
#include "sw16/cycle_model.hpp"
#include "trng/entropy_source.hpp"

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace otf::core {

struct window_report {
    std::uint64_t window_index = 0;
    software_result software;
    /// Cycles the software routine took on the configured MCU model.
    std::uint64_t sw_cycles = 0;
    /// Cycles the TRNG needed to produce the window (1 bit/cycle), i.e. the
    /// budget the software latency must stay under for gap-free testing.
    std::uint64_t generation_cycles = 0;
};

/// \brief Which ingestion lane a packed window takes through the hardware.
/// All lanes are register-exact for the same words; the per-bit lane is
/// the paper-faithful equivalence oracle, the span lane the fast path
/// (tests/test_kernel_oracle.cpp enforces the equivalence).  The values
/// are the lane codes of supervisor checkpoints (core/telemetry_log.hpp);
/// codes 0 and 3 were the retired word and bit-sliced lanes.
enum class ingest_lane {
    per_bit = 1, ///< one feed() per bit (one hardware clock per bit)
    /// hw::testing_block::feed_span whole-span kernels (the default)
    span = 2,
};

/// \brief Per-window callback of run_windows(): alarm policies, scenario
/// accounting and fleet aggregation are all sinks over the window stream.
using window_sink = std::function<void(const window_report&)>;

/// \brief Raw-window observer of run_windows(): invoked with every packed
/// window *before* it is tested.  This is the evidence-capture hook of the
/// escalation supervisor (core/supervisor.hpp): online verdicts come from
/// the sink, the raw words that produced them from the tap, so a
/// suspicious stretch can be replayed offline.
using window_tap = std::function<void(
    std::uint64_t window_index, const std::uint64_t* words,
    std::size_t nwords)>;

/// \brief Between-windows callback of run_windows(): runs at every window
/// boundary (never mid-window) with the index of the window about to be
/// tested.  It is both the *reconfiguration barrier* -- a hook that
/// reprograms the monitor's testing block here changes the design point,
/// window length included, and the next window is framed at the new
/// length without dropping a word -- and the home of per-window severity
/// schedules.
using window_barrier = std::function<void(std::uint64_t next_window)>;

/// \brief The three per-window hooks of run_windows(); any may be null.
struct window_hooks {
    window_barrier before; ///< boundary: reconfiguration or schedule
    window_tap tap;        ///< raw window words, before testing
    window_sink sink;      ///< the window's verdicts
};

class monitor {
public:
    /// \brief Build a monitor for one design point.
    /// \param cfg    hardware design point (testing block configuration)
    /// \param alpha  per-test level of significance; critical values are
    ///               precomputed offline from it
    /// \param mcu    cycle model of the embedded CPU that runs the
    ///               software pass
    monitor(hw::block_config cfg, double alpha,
            sw16::cycle_model mcu = sw16::msp430_model());

    /// \brief Same, with critical values precomputed by the caller --
    /// lets a fleet of identical channels invert the distributions once
    /// instead of once per channel.
    monitor(hw::block_config cfg, critical_values cv,
            sw16::cycle_model mcu = sw16::msp430_model());

    const hw::block_config& config() const { return block_.config(); }
    const critical_values& bounds() const { return runner_.bounds(); }
    const hw::testing_block& block() const { return block_; }
    const sw16::cycle_model& mcu() const { return mcu_; }

    /// \brief Stream one n-bit window from `source` through the hardware
    /// one bit per clock (the paper's deployment), then run the software
    /// pass and return the verdicts.
    window_report test_window(trng::entropy_source& source);

    /// \brief Test a pre-recorded sequence (length must equal n).
    /// \throws std::invalid_argument naming the expected and actual
    /// lengths when they differ.
    window_report test_sequence(const bit_sequence& seq);

    /// \brief Test one pre-packed window from a raw span -- the
    /// allocation-free entry point of run_windows().
    /// \param words  LSB-first packed window; `nwords * 64` must equal n
    /// \param nwords number of 64-bit words
    /// \param lane   span fast lane or per-bit oracle lane;
    ///               register-exact either way
    /// \throws std::invalid_argument naming the expected and actual
    /// lengths when they differ
    window_report test_packed(const std::uint64_t* words,
                              std::size_t nwords,
                              ingest_lane lane = ingest_lane::span);

    /// \brief Incremental ingestion, step 1: feed part of the current
    /// window from a contiguous span.  Unlike test_packed() the span need
    /// not be a whole window; close the window with finish_packed() once
    /// exactly n bits have arrived.  All lanes are chunk-invariant, so
    /// ragged spans are register-exact with one whole-window feed.
    /// \param words  LSB-first packed span
    /// \param nwords span length in 64-bit words
    /// \param lane   ingestion lane
    void feed_packed(const std::uint64_t* words, std::size_t nwords,
                     ingest_lane lane = ingest_lane::span);

    /// \brief Incremental ingestion, step 2: close the window the
    /// feed_packed() calls filled and run the software pass.
    /// \throws std::logic_error (from the testing block) unless exactly n
    /// bits were fed since the last window boundary
    window_report finish_packed();

    /// \brief On-the-fly reconfiguration: reprogram the live testing
    /// block to `target` *through the control-register write path*
    /// (hw::testing_block::reprogram) and swap the software pass to the
    /// matching precomputed bounds.  The window counter keeps running --
    /// the monitor's stream continues at the new design point.  The
    /// monitor keeps the pass bound to each design the block keeps
    /// resident, so switching back to one neither copies `cv` nor
    /// rebinds to the register layout.
    /// \param target new design point
    /// \param cv     critical values precomputed for `target` (lets a
    ///               supervisor invert them once, not per escalation)
    /// \throws std::logic_error mid-window (only legal between windows)
    /// \throws std::invalid_argument when `target` is inconsistent or `cv`
    /// was inverted for another design (the monitor is left unchanged)
    void reconfigure(const hw::block_config& target,
                     const critical_values& cv);
    /// Same, inverting the critical values for `target` at `alpha` here.
    void reconfigure(const hw::block_config& target, double alpha);

    /// \brief Start over at the live design, as a freshly constructed
    /// monitor would: the block restarts (dropping a window a throwing
    /// source left half-fed) and is re-strobed at its design (no latch, a
    /// zero value file), and the window and instruction counts clear.
    void reset();

    /// Cumulative instruction counts across all windows so far.
    const sw16::op_counts& lifetime_ops() const { return cpu_.counts(); }
    std::uint64_t windows_tested() const { return windows_; }

    /// \brief Checkpoint restore: continue the global window numbering
    /// of a previous run.  `window_report.window_index` and the
    /// run_windows() hook indices all derive from this counter, so a
    /// restored channel numbers its windows exactly as the uninterrupted
    /// run would.  Legal between windows only (the counter is read at
    /// window boundaries).
    void restore_window_count(std::uint64_t windows) { windows_ = windows; }

private:
    friend void run_windows(monitor& mon, trng::entropy_source& source,
                            std::uint64_t windows, ingest_lane lane,
                            const window_hooks& hooks);

    hw::testing_block block_;
    /// The pass bound to the live design.
    software_runner runner_;
    /// The passes of the block's other resident designs, most recently
    /// used first.
    std::vector<software_runner> parked_runners_;
    sw16::soft_cpu cpu_;
    sw16::cycle_model mcu_;
    std::uint64_t windows_ = 0;
    /// The word buffer run_windows() frames each window in, kept across
    /// runs so a reused monitor's windows allocate nothing.
    std::vector<std::uint64_t> staging_;

    window_report finish_window();
};

/// \brief The window loop every caller shares -- the paper's deployment
/// shape: the hardware block consumes an n-bit window, the MCU reads the
/// counters at the window boundary, and the block restarts.  Each window
/// goes through
///
///   hooks.before(i) -> fill n bits from `source` -> hooks.tap(i, words)
///     -> monitor::test_packed -> hooks.sink(report)
///
/// where `i` is the monitor's window counter.  The window length is
/// re-read after `before`, so a barrier that reconfigures the monitor
/// re-frames the stream without dropping a word.  Sub-word designs
/// (n < 64) on the per-bit lane are fed one next_bit() per clock instead
/// (no packed words: the tap is not called); on the span lane they
/// throw test_packed()'s length error, which fleet_config::validate()
/// reports up front instead.
/// \param mon     the channel's monitor
/// \param source  word supplier (entropy_source::fill_words_available)
/// \param windows windows to test; 0 tests nothing
/// \param lane    ingestion lane for every window
/// \param hooks   per-window callbacks (each may be null)
/// \throws std::runtime_error naming the source and the window count when
/// the source runs dry before `windows` windows were tested
void run_windows(monitor& mon, trng::entropy_source& source,
                 std::uint64_t windows, ingest_lane lane = ingest_lane::span,
                 const window_hooks& hooks = {});

/// \brief The AIS-31-style k-of-w decision rule shared by the fleet
/// channels (core::channel_runner) and the escalation supervisor: a
/// sticky alarm raised when at least `threshold` of the last `window`
/// per-window verdicts failed.  `reset()` clears the stickiness -- the
/// supervisor's de-escalation path re-arms the policy after a clean
/// dwell.
class windowed_alarm {
public:
    /// \param threshold minimum failures that raise the alarm
    /// \param window    how many recent verdicts count
    /// \throws std::invalid_argument unless 0 < threshold <= window
    windowed_alarm(unsigned threshold, unsigned window);

    /// \brief Record one window verdict.
    /// \param failed whether the window failed (any test)
    /// \return the (sticky) alarm state after recording
    bool record(bool failed);

    bool alarm() const { return alarm_; }
    /// True when the most recent record() was the rising edge.
    bool rose() const { return rose_; }
    /// Failures currently inside the policy window.
    unsigned recent_failures() const { return recent_failures_; }

    /// \brief Clear the verdict history and the sticky alarm (the policy
    /// re-arms from scratch).
    void reset();

    /// Recent verdicts oldest-first (for checkpoint serialization).
    std::vector<bool> history() const;

    /// \brief Checkpoint restore: replace the verdict history and the
    /// sticky alarm flag; `recent_failures` is recomputed from the
    /// history and the rising-edge flag clears (a checkpoint is taken
    /// between windows, after any edge was consumed).
    /// \throws std::invalid_argument when `history` exceeds the policy
    /// window
    void restore(const std::vector<bool>& history, bool sticky_alarm);

private:
    unsigned threshold_;
    unsigned window_;
    std::deque<bool> recent_;
    unsigned recent_failures_ = 0;
    bool alarm_ = false;
    bool rose_ = false;
};

} // namespace otf::core
