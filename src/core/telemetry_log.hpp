// Durable telemetry: the supervision loop's events, evidence windows and
// checkpoints appended to a crash-tolerant segment (base/wal.hpp).
//
// The supervision hot path must never block on I/O -- a fleet channel
// that stalls on fwrite() is a fleet channel that drops words.  So the
// log is split across a thread boundary by a lock-free MPMC event queue
// (base/event_queue.hpp): producers
// serialize each record into a heap buffer and enqueue a descriptor;
// one writer thread owns the wal_writer and drains the queue.  When the
// queue is full the record is *dropped and counted*, never waited on --
// durability degrades before latency does, and the drop counter makes
// the degradation observable.
//
// Record kinds (the WAL frame's type byte):
//
//   run_config = 1  -- the full supervisor_config, once, first record
//   window     = 2  -- one captured evidence window (index + raw words)
//   event      = 3  -- one supervision_event (core/supervisor.hpp)
//   checkpoint = 4  -- a supervisor_checkpoint at a state transition
//
// The reader side (`read_telemetry`) recovers the valid record prefix
// and re-types it; `verify_replay` then re-runs the offline battery
// over the logged evidence exactly as the live supervisor did and
// demands bit-identical P-values -- the log *is* the evidence, and
// replay proves it (tools/otf_replay is the CLI over this).
#pragma once

#include "base/event_queue.hpp"
#include "base/wal.hpp"
#include "core/supervisor.hpp"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace otf::core {

/// Telemetry WAL schema version (the segment header's schema field).
inline constexpr std::uint32_t telemetry_schema = 1;

/// WAL frame type byte of each telemetry record kind.
enum class telemetry_record : std::uint8_t {
    run_config = 1, ///< supervisor_config, logged once up front
    window = 2,     ///< one captured evidence window
    event = 3,      ///< one supervision_event
    checkpoint = 4, ///< one supervisor_checkpoint
};

/// \brief Raw serialization of one design point (every block_config
/// field, register_map-style), so a replay tool can rebuild the exact
/// configuration the run used.
void serialize_config(base::byte_sink& sink, const hw::block_config& cfg);
/// \throws std::runtime_error on a truncated payload
hw::block_config parse_block_config(base::byte_cursor& cursor);

/// \brief Raw serialization of the full supervision policy (both
/// designs, alarm rule, evidence depth, offline settings, lane).
void serialize_config(base::byte_sink& sink, const supervisor_config& cfg);
/// \throws std::runtime_error on a truncated or malformed payload
supervisor_config parse_supervisor_config(base::byte_cursor& cursor);

struct telemetry_config {
    std::string path;       ///< segment file to create (truncates)
    /// MPMC queue depth between producers and the writer thread; a full
    /// queue drops records (counted), it never blocks a producer.
    std::size_t queue_capacity = 1024;
    /// Segment size bound forwarded to base::wal_writer (0 = unbounded);
    /// appends past the bound are dropped and counted, never torn.
    std::uint64_t max_bytes = 0;
    /// Log every captured evidence window (the full forensic trail: the
    /// raw stream is independently reconstructable from the segment).
    /// When false, only events and checkpoints are logged -- replayed
    /// confirmation verdicts stay bit-identical either way, because
    /// each escalation's checkpoint carries the exact evidence ring the
    /// live battery saw, but full capture costs the disk bandwidth of
    /// the stream itself (bench/replay.cpp measures both).
    bool log_windows = true;
};

/// \brief The durable sink a supervisor attaches to
/// (supervisor::attach_telemetry).  Producers may call the log_* methods
/// from any thread; one background thread owns the segment file.
/// close() (or destruction) drains the queue and seals the segment --
/// call it only after the producers have quiesced, exactly like the
/// event queue's own close() protocol.
class telemetry_log {
public:
    /// \throws std::invalid_argument on a zero queue capacity
    /// \throws std::runtime_error when the segment cannot be created
    explicit telemetry_log(telemetry_config cfg);

    telemetry_log(const telemetry_log&) = delete;
    telemetry_log& operator=(const telemetry_log&) = delete;

    ~telemetry_log();

    // -- producer side (any thread; never blocks on I/O) --------------

    void log_run_config(const supervisor_config& cfg);
    void log_window(std::uint64_t window_index, const std::uint64_t* words,
                    std::size_t nwords);
    void log_event(const supervision_event& ev);
    void log_checkpoint(const supervisor_checkpoint& cp);

    // -- owner side ----------------------------------------------------

    /// \brief Drain the queue, seal the segment and join the writer
    /// thread.  Call after every producer has quiesced; idempotent.
    void close();

    const std::string& path() const { return cfg_.path; }
    /// Records accepted into the queue so far.
    std::uint64_t records_logged() const
    {
        return logged_.load(std::memory_order_relaxed);
    }
    /// Records lost to a full queue or the segment size bound.
    std::uint64_t records_dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }
    /// Bytes written to the segment (exact once close() returned).
    std::uint64_t bytes_written() const
    {
        return bytes_written_.load(std::memory_order_relaxed);
    }

private:
    /// Queue descriptor: the payload lives on the heap so the queue cell
    /// stays trivially copyable; the writer thread takes ownership.
    struct pending {
        std::uint8_t kind = 0;
        std::vector<std::uint8_t>* payload = nullptr;
    };

    void enqueue(telemetry_record kind, base::byte_sink&& sink);
    void writer_loop();

    telemetry_config cfg_;
    base::wal_writer writer_;
    base::event_queue<pending> queue_;
    std::atomic<std::uint64_t> logged_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> bytes_written_{0};
    std::atomic<bool> closed_{false};
    std::thread writer_thread_;
};

// ---------------------------------------------------------------------
// Reader side: recovery + deterministic replay.
// ---------------------------------------------------------------------

/// One evidence window recovered from the log.
struct logged_window {
    std::uint64_t index = 0;
    std::vector<std::uint64_t> words;

    friend bool operator==(const logged_window&,
                           const logged_window&) = default;
};

/// \brief Everything recovered from one telemetry segment: the typed
/// records plus their original interleaving (`order`), which replay
/// needs to rebuild the evidence ring the live run had at each
/// confirmation.
struct telemetry_run {
    bool header_ok = false; ///< segment header validated
    std::uint32_t schema = 0;
    bool clean = false; ///< no torn/corrupt tail (base::wal_read_result)
    std::uint64_t file_bytes = 0;
    std::uint64_t valid_bytes = 0;

    bool has_config = false;
    supervisor_config config; ///< meaningful only when has_config
    /// Whether the writer captured every evidence window
    /// (telemetry_config::log_windows; stored in the run_config record).
    bool windows_logged = true;

    std::vector<logged_window> windows;
    std::vector<supervision_event> events;
    std::vector<supervisor_checkpoint> checkpoints;

    /// One entry per recovered record in file order; `index` points into
    /// the kind's vector above.
    struct item {
        telemetry_record kind = telemetry_record::run_config;
        std::size_t index = 0;
    };
    std::vector<item> order;

    /// Frames with an unknown type byte (a newer writer); skipped.
    std::uint64_t unknown_records = 0;
};

/// \brief Re-type the records of a recovered segment image.
/// \throws std::runtime_error when a CRC-valid record fails to parse
/// (schema mismatch -- corruption is caught by the WAL layer, which
/// truncates to the valid prefix instead of throwing)
telemetry_run parse_telemetry(const base::wal_read_result& wal);

/// \brief Read, recover and re-type a telemetry segment file.
/// \throws std::runtime_error when the file cannot be opened, or on a
/// record that fails to parse (see parse_telemetry)
telemetry_run read_telemetry(const std::string& path);

/// \brief One offline confirmation replayed from the log: the verdict
/// the live run recorded next to the verdict re-derived here from the
/// logged evidence windows.  `match` demands full equality -- P-values
/// bit-identical, flags and tallies equal.
struct replay_confirmation {
    std::uint64_t window = 0; ///< barrier window of the escalation
    confirmation_result live;
    confirmation_result replayed;
    bool match = false;
};

/// \brief Outcome of a deterministic replay pass over one run.
struct replay_report {
    std::uint64_t windows_replayed = 0; ///< evidence windows walked
    std::uint64_t events_replayed = 0;
    std::uint64_t checkpoints_checked = 0;
    std::vector<replay_confirmation> confirmations;
    /// Every checkpoint's event timeline equalled the events replayed up
    /// to that record (sequence, kinds, dwell and confirmations alike).
    bool checkpoints_consistent = true;
    /// Full-capture runs only: at every checkpoint, the evidence ring
    /// rebuilt from the window records equalled the ring the checkpoint
    /// carries (index and raw words).
    bool ring_consistent = true;
    /// True when every confirmation matched and the checkpoints/ring
    /// were consistent (vacuously true for a run with no escalations).
    bool verified = true;
};

/// \brief Deterministic replay: walk the records in file order,
/// maintain the bounded evidence ring exactly as the live supervisor
/// did, and at each `confirmed` event re-run the offline battery over
/// the ring, demanding a bit-identical verdict.  On a full-capture run
/// the ring is rebuilt from the logged window records (the raw stream
/// is the evidence); on a transitions-only run it comes from the
/// escalation checkpoint, which carries the exact ring the live
/// battery saw.  Checkpoint records are cross-checked against the
/// replayed event timeline (and, on full capture, the rebuilt ring).
/// \throws std::invalid_argument when the run carries no config record
/// (nothing to parameterize the battery with)
replay_report verify_replay(const telemetry_run& run);

} // namespace otf::core
