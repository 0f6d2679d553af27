// Streaming ingestion core: the shared producer → ring → pump pipeline.
//
// The paper's platform is *on-the-fly*: the FPGA testing block analyses
// every bit while the TRNG is producing, and the MSP430 polls verdicts at
// window boundaries.  This module is that shape in software, decoupling
// generation from analysis through a lock-free SPSC word ring
// (base/ring_buffer.hpp):
//
//   entropy_source ──fill_words──▶ reserved ring span ──commit──▶ ring
//       ring ──peek──▶ window_pump ──feed_packed/finish_packed──▶ monitor
//                                     │
//                                     └──window_report──▶ window_sink(s)
//
// Both hops are zero-copy: the producer generates words directly into
// ring storage (ring_buffer::reserve/commit) and the pump feeds ring
// spans directly into the testing block (ring_buffer::peek/consume +
// monitor::feed_packed) -- a word is written once, at generation, and
// never copied again.  Only a pump with an evidence tap installed
// assembles windows (the tap's contract is one contiguous window).
//
// Everything that used to be a bespoke pull loop -- `monitor` batch runs,
// the fleet's per-channel double-buffer hand-off, the scenario runner's
// trial loop -- is now one producer, one ring and one pump, with the
// loop-specific behaviour (AIS-31 alarms, severity schedules, fleet
// aggregation) expressed as `window_sink` callbacks.  Both ingestion
// lanes stay register-exact with the pre-pipeline loops: the stream
// carries the same words in the same order, and `monitor::test_packed`
// feeds them through the same hardware model.
//
// Determinism: the *data* through the ring is a pure function of the
// source, so every verdict and counter is scheduling-independent; only
// the `stream_stats` backpressure telemetry (and wall-clock fields)
// depend on thread timing.
#pragma once

#include "base/ring_buffer.hpp"
#include "core/monitor.hpp"
#include "trng/entropy_source.hpp"

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

namespace otf::core {

/// \brief Tuning and instrumentation knobs of a word_producer.
struct producer_options {
    /// Total words to produce; 0 = open-ended (produce until the source
    /// runs dry or request_stop()).
    std::uint64_t total_words = 0;
    /// Largest fill_words batch per iteration (clamped to the hook
    /// stride and the remaining total).
    std::size_t batch_words = 256;
    /// Invoke `word_hook` whenever production reaches a multiple of this
    /// stride (0 = never).  A generation batch never crosses a stride
    /// boundary, so state the hook changes (e.g. a source_model severity
    /// dial) takes effect exactly at the boundary word.
    std::uint64_t hook_stride_words = 0;
    /// Called with the absolute word index about to be produced.  Runs on
    /// the producer's thread, before the boundary word is generated --
    /// the streaming home of per-window severity schedules, now advanced
    /// at word granularity.
    std::function<void(std::uint64_t word_index)> word_hook;
};

/// \brief Scheduling-dependent telemetry of one pipeline run.  Unlike
/// verdicts and counters this is *not* deterministic across thread
/// timings; it answers "which stage bounds throughput", not "what did
/// the tests say".
struct stream_stats {
    std::uint64_t words = 0;           ///< words through the ring
    std::uint64_t producer_stalls = 0; ///< pushes rejected: ring full
    std::uint64_t consumer_stalls = 0; ///< pops rejected: ring empty
    std::size_t max_occupancy = 0;     ///< high-water ring depth (words)
    std::size_t ring_capacity = 0;     ///< ring capacity (words)

    friend bool operator==(const stream_stats&,
                           const stream_stats&) = default;
};

/// \brief Read a ring's lifetime telemetry into a stream_stats snapshot.
stream_stats snapshot(const base::ring_buffer& ring);

/// \brief Default channel-pipeline sizing, shared by the fleet channels
/// and scenario trials so the two setups cannot drift: a ring two
/// windows deep (the software double buffer) ...
std::size_t default_ring_words(std::size_t window_words);
/// ... and generation batches of half the ring -- one whole window on
/// the default two-window ring, growing past a window on deeper rings
/// (the batched generation lane gets cheaper per word the larger the
/// batch, and half the ring keeps the pipeline genuinely
/// double-buffered).  `ring_words` 0 means the default ring for this
/// window length.
std::size_t default_batch_words(std::size_t window_words,
                                std::size_t ring_words = 0);

/// \brief The generation half of the pipeline: pulls packed words from
/// any `trng::entropy_source` (including source_model stacks) and pushes
/// them into a ring, spinning under backpressure.
///
/// Designed to run on its own thread via run(), which never throws:
/// source failures are captured and re-surfaced by rethrow_if_failed()
/// after the join.  The ring is always closed on exit, so the consumer
/// side terminates cleanly whatever happens here.
class word_producer {
public:
    /// \brief Bind a source to a ring.  The producer borrows both; they
    /// must outlive it.
    /// \param source the word supplier (fill_words_available)
    /// \param ring   destination ring; this producer must be its only
    ///               pusher
    /// \param opts   batch size, total count, word hook
    /// \throws std::invalid_argument on a zero batch size
    word_producer(trng::entropy_source& source, base::ring_buffer& ring,
                  producer_options opts = {});

    /// \brief Produce-and-push until the total is reached, the source
    /// runs dry, or request_stop() -- then close the ring.  Never
    /// throws; failures park in rethrow_if_failed().
    void run() noexcept;

    /// \brief Ask a running producer to wind down (it may push up to one
    /// final batch).  Safe from any thread.
    void request_stop() { stop_.store(true, std::memory_order_relaxed); }

    /// Words successfully pushed so far.
    std::uint64_t words_produced() const
    {
        return produced_.load(std::memory_order_relaxed);
    }

    bool failed() const { return error_ != nullptr; }
    /// \brief Re-raise the failure run() captured, if any.  Call after
    /// joining the producer thread.
    void rethrow_if_failed() const
    {
        if (error_) {
            std::rethrow_exception(error_);
        }
    }

private:
    trng::entropy_source& source_;
    base::ring_buffer& ring_;
    producer_options opts_;
    std::atomic<std::uint64_t> produced_{0};
    std::atomic<bool> stop_{false};
    std::exception_ptr error_;
};

/// \brief Raw-window observer of the pump: invoked with every assembled
/// packed window *before* it is tested.  This is the evidence-capture
/// hook of the escalation supervisor (core/supervisor.hpp): online
/// verdicts come from the sink, the raw words that produced them from
/// the tap, so a suspicious stretch can be replayed offline.
using window_tap = std::function<void(
    std::uint64_t window_index, const std::uint64_t* words,
    std::size_t nwords)>;

/// \brief Between-windows callback of the pump: runs at every window
/// boundary (never mid-window) with the index of the window about to be
/// assembled.  This is the *mid-stream reconfiguration barrier*: a hook
/// that reprograms the monitor's testing block here changes the design
/// point -- including the window length -- and the pump re-frames the
/// word stream to the new length without dropping a word (the words stay
/// queued in the ring while the hardware is reprogrammed).
using window_barrier = std::function<void(std::uint64_t next_window)>;

/// \brief The analysis half of the pipeline: drains whole n-bit windows
/// from a ring into a monitor and hands every window_report to a sink.
///
/// Runs on the consumer thread (often the caller's).  When the ring
/// closes mid-window the trailing partial window is dropped and counted
/// in leftover_words() -- exactly like hardware losing the window in
/// flight at power-down.
class window_pump {
public:
    /// \param ring source ring; this pump must be its only popper
    /// \param mon  the channel's monitor (defines the window length n)
    /// \param lane ingestion lane for every window
    /// \throws std::invalid_argument when the design's window is shorter
    /// than one 64-bit word (the stream is word-granular; sub-word
    /// designs keep the direct batch paths)
    window_pump(base::ring_buffer& ring, monitor& mon,
                ingest_lane lane = ingest_lane::span);

    /// \brief Pump until the ring drains, `max_windows` is reached, or
    /// the sink returns false.
    /// \param sink        per-window callback (may be null)
    /// \param max_windows cap for this call; 0 = until the ring drains
    /// \return windows completed during this call
    std::uint64_t run(const window_sink& sink,
                      std::uint64_t max_windows = 0);

    std::uint64_t windows_pumped() const { return windows_; }
    /// Words stranded by a close that landed mid-window.
    std::uint64_t leftover_words() const { return leftover_; }
    /// Windows that took the zero-copy path (ring spans fed straight
    /// into the testing block, no window assembly).  Untapped pumps take
    /// it for every window; an installed evidence tap forces the copy
    /// path, because the tap's contract is one contiguous window.
    std::uint64_t zero_copy_windows() const { return zero_copy_windows_; }

    /// \brief Install the raw-window evidence tap (may be null).
    void set_tap(window_tap tap) { tap_ = std::move(tap); }

    /// \brief Install the reconfiguration barrier (may be null).  After
    /// the barrier returns the pump re-reads the monitor's window length,
    /// so a barrier that calls monitor::reconfigure() re-frames the
    /// stream mid-flight.
    /// \throws std::invalid_argument (from run()) if a reconfiguration
    /// shrinks the window below one 64-bit word
    void set_barrier(window_barrier barrier)
    {
        barrier_ = std::move(barrier);
    }

private:
    /// Match the window buffer to the monitor's current design (legal
    /// only between windows).
    void reframe();

    base::ring_buffer& ring_;
    monitor& mon_;
    ingest_lane lane_;
    std::vector<std::uint64_t> window_;
    std::size_t filled_ = 0;
    std::uint64_t windows_ = 0;
    std::uint64_t leftover_ = 0;
    std::uint64_t zero_copy_windows_ = 0;
    /// Path latched per window (at filled_ == 0), so installing a tap
    /// mid-stream can never mix paths inside one window.
    bool zero_copy_ = false;
    window_tap tap_;
    window_barrier barrier_;
};

/// \brief Run one producer/pump pair to completion: the producer on its
/// own thread (the deployment shape -- generation truly concurrent with
/// analysis), the pump on the calling thread.
///
/// Exception-safe in both directions: a sink/monitor throw stops the
/// producer and joins it before propagating; a source failure closes the
/// ring (so the pump finishes the windows already buffered) and is
/// rethrown here after the join.
/// \param producer generation half (runs on a spawned thread)
/// \param pump     analysis half (runs on this thread)
/// \param sink     per-window callback; return false to stop the stream
/// \param max_windows cap on pumped windows; 0 = until the stream ends
/// \return windows completed
std::uint64_t run_pipeline(word_producer& producer, window_pump& pump,
                           const window_sink& sink,
                           std::uint64_t max_windows = 0);

} // namespace otf::core
