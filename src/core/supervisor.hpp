// Adaptive escalation supervisor: on-the-fly reconfiguration + offline
// confirmation as one closed loop.
//
// The paper's platform is sold on two mechanisms this module finally wires
// together: the testing block is *reconfigured on the fly* through its
// register map, and online hardware verdicts are *re-verified offline in
// software*.  The supervisor runs the window loop (core::run_windows) at
// a cheap always-on baseline design, keeps a bounded evidence ring of
// recent raw windows (tapped off the loop), and reacts to a k-of-w alarm
// in three moves:
//
//   1. escalate  -- at the next window boundary the live testing block is
//                   reprogrammed to a heavier design point through the
//                   testing block's control registers (the paper's actual
//                   reconfiguration mechanism); no word of the stream is
//                   dropped -- the next window is simply framed at the
//                   new window length;
//   2. confirm   -- the captured evidence is replayed offline through the
//                   composable SP 800-22 battery (nist/battery.hpp), the
//                   embedded analogue of shipping a suspicious stretch to
//                   the host for the full software evaluation;
//   3. de-escalate -- after a clean dwell at the heavy design the block
//                   is reprogrammed back to the baseline and the alarm
//                   policy re-arms.
//
// Every transition is a structured supervision_event; the timeline
// serializes via base/json.hpp, so escalation behaviour is machine-
// checkable (bench/escalation.cpp sweeps the adversarial library over
// it).  This is the MSP430 control flow of the paper grown into a policy:
// cheap tests all the time, heavy tests on suspicion, software
// confirmation before anyone pulls a deployed TRNG.
//
// The supervisor's state *is* a supervisor_checkpoint: checkpoint()
// copies it, restore() assigns it.  Live escalation and log replay
// (core/telemetry_log.hpp) share one evidence_window type and one
// confirmation, confirm_evidence().
#pragma once

#include "base/wal.hpp"
#include "core/critical_values.hpp"
#include "core/monitor.hpp"
#include "nist/battery.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace otf::core {

class telemetry_log; // core/telemetry_log.hpp (durable event/evidence log)

/// Which design tier the supervised channel is currently running.
enum class supervision_state { baseline, escalated };

/// \brief Kinds of supervision-timeline events.
enum class supervision_event_kind {
    alarm_raised,  ///< the k-of-w policy crossed its threshold
    escalated,     ///< block reprogrammed to the heavy design
    confirmed,     ///< offline battery verdict on the captured evidence
    alarm_cleared, ///< the policy was reset (part of de-escalation)
    de_escalated   ///< block reprogrammed back to the baseline
};

std::string to_string(supervision_event_kind kind);

/// \brief Offline confirmation outcome: the captured evidence replayed
/// through the composable battery.
struct confirmation_result {
    std::uint64_t evidence_windows = 0; ///< raw windows replayed
    std::uint64_t evidence_bits = 0;
    /// Machine-readable per-test results.
    nist::battery_report battery;
    /// True when the battery agrees with the online suspicion (at least
    /// `supervisor_config::offline_min_failures` failing P-values).
    bool confirmed = false;

    friend bool operator==(const confirmation_result&,
                           const confirmation_result&) = default;
};

/// \brief One entry of the supervision timeline.
struct supervision_event {
    std::uint64_t sequence = 0;     ///< event ordinal within the run
    std::uint64_t window_index = 0; ///< global window count at the event
    supervision_event_kind kind = supervision_event_kind::alarm_raised;
    /// De-escalation dwell counter at the event: consecutive clean
    /// windows at the escalated design so far (0 while at the baseline;
    /// equals `supervisor_config::dwell_windows` on the de-escalation
    /// events).  Carried in every payload so the dwell progress is
    /// observable externally and checkpoint equality can assert on it.
    std::uint64_t dwell = 0;
    std::string from_design; ///< design label before (escalate/de-escalate)
    std::string to_design;   ///< design label after
    /// Offline verdict (kind == confirmed only).
    std::optional<confirmation_result> confirmation;

    friend bool operator==(const supervision_event&,
                           const supervision_event&) = default;
};

/// \brief Raw serialization of one timeline event (register_map-style
/// fixed-width little-endian fields; doubles as IEEE bit patterns so
/// replayed P-values compare bit-identical).  Shared by the durable
/// telemetry log and the checkpoint format.
void serialize_event(base::byte_sink& sink, const supervision_event& ev);
/// \throws std::runtime_error on a truncated or malformed payload
supervision_event parse_event(base::byte_cursor& cursor);

/// \brief Supervision policy: the two design points, the online alarm
/// rule, the evidence depth and the offline confirmation settings.
struct supervisor_config {
    /// Cheap always-on design the channel normally runs.
    hw::block_config baseline;
    /// Heavy design the block is reprogrammed to on suspicion.
    hw::block_config escalated;
    /// Per-test level of significance for both online designs.
    double alpha = 0.001;
    /// k-of-w online alarm: escalate when at least `fail_threshold` of
    /// the last `policy_window` window verdicts failed.
    unsigned fail_threshold = 3;
    unsigned policy_window = 8;
    /// Evidence ring depth: how many recent raw windows are kept for
    /// offline confirmation.
    std::size_t evidence_windows = 8;
    /// Consecutive clean windows at the escalated design before the
    /// block de-escalates back to the baseline.
    std::uint64_t dwell_windows = 16;
    /// Offline confirmation: significance level, test subset (empty =
    /// every registered SP 800-22 test) and how many failing P-values
    /// count as confirmation.
    double offline_alpha = 0.01;
    nist::battery_selection offline_tests = nist::battery_selection::all();
    unsigned offline_min_failures = 2;
    /// Ingestion lane (span fast lane by default; the per-bit lane is
    /// the oracle -- see core::ingest_lane).
    ingest_lane lane = ingest_lane::span;

    /// \throws std::invalid_argument on inconsistent designs (both must
    /// be streamable: n >= 64), an invalid alarm policy, zero evidence
    /// depth or zero dwell
    void validate() const;
};

/// \brief One captured raw window (live ring, checkpoint ring, telemetry
/// window records).
struct evidence_window {
    std::uint64_t index = 0;
    std::vector<std::uint64_t> words;

    friend bool operator==(const evidence_window&,
                           const evidence_window&) = default;
};

/// \brief Raw serialization of one window (u64 index, u32 word count,
/// little-endian u64 words): a telemetry window record's payload and a
/// checkpoint ring entry.
void serialize_window(base::byte_sink& sink, std::uint64_t index,
                      const std::uint64_t* words, std::size_t nwords);
/// \throws std::runtime_error on a truncated payload
evidence_window parse_window(base::byte_cursor& cursor);

/// \brief Append one window to an oldest-first evidence ring of at most
/// `depth` windows.  A full ring rotates and reuses its oldest slot's
/// buffer, so steady-state capture allocates nothing; a growing ring takes
/// its new slot from `spare` first, when given and not empty.
void push_evidence(std::vector<evidence_window>& ring, std::size_t depth,
                   std::uint64_t index, const std::uint64_t* words,
                   std::size_t nwords,
                   std::vector<evidence_window>* spare = nullptr);

/// \brief The offline confirmation: the ring's words, oldest first and
/// LSB-first, through the SP 800-22 battery (`cfg.offline_*`).  Live
/// escalation and verify_replay() both call it, so a replayed verdict is
/// bit-identical whenever the evidence is.
confirmation_result confirm_evidence(const std::vector<evidence_window>& ring,
                                     const supervisor_config& cfg);

/// \brief Aggregated telemetry of one supervised run.  Deterministic for
/// a fixed source except `seconds`.
struct supervision_report {
    std::uint64_t windows = 0;  ///< windows tested (all designs)
    std::uint64_t failures = 0; ///< windows with any failing test
    std::uint64_t bits = 0;     ///< bits tested
    unsigned escalations = 0;
    unsigned confirmed_escalations = 0; ///< offline battery agreed
    unsigned de_escalations = 0;
    std::uint64_t windows_escalated = 0; ///< windows spent escalated
    /// Window index of the first escalation (windows when none).
    std::uint64_t first_escalation_window = 0;
    bool alarm = false; ///< online alarm state at the end of the run
    supervision_state final_state = supervision_state::baseline;
    std::map<std::string, std::uint64_t> failures_by_test;
    /// The full structured timeline.
    std::vector<supervision_event> events;
    double seconds = 0.0; ///< wall clock (run() only)
};

/// \brief The complete between-windows state of a supervisor: alarm
/// policy history, escalation level, dwell counter, evidence ring,
/// counters and the event timeline, plus the monitor's window counter so
/// a restored channel continues the global numbering.  Captured at a
/// window boundary (the barrier), serialized raw (fixed-width
/// little-endian fields, register_map-style) and restored into a freshly
/// constructed supervisor of the same configuration -- the continuation
/// is register-exact versus an uninterrupted run
/// (tests/test_supervisor.cpp pins this across designs and lanes).
struct supervisor_checkpoint {
    supervision_state state = supervision_state::baseline;
    bool pending_escalation = false;
    std::uint64_t clean_streak = 0; ///< de-escalation dwell progress

    /// k-of-w alarm policy state: recent verdicts oldest-first plus the
    /// sticky alarm flag (recent_failures is recomputed on restore).
    std::vector<bool> alarm_history;
    bool alarm_sticky = false;

    std::uint64_t windows = 0;
    std::uint64_t failures = 0;
    std::uint64_t bits = 0;
    std::uint64_t windows_escalated = 0;
    unsigned escalations = 0;
    unsigned confirmed_escalations = 0;
    unsigned de_escalations = 0;
    bool has_first_escalation = false;
    std::uint64_t first_escalation_window = 0;
    std::map<std::string, std::uint64_t> failures_by_test;

    std::vector<evidence_window> evidence_ring; ///< oldest-first

    std::vector<supervision_event> events; ///< full timeline so far

    /// The monitor's lifetime window counter (window_report.window_index
    /// and the stream barrier both derive from it).
    std::uint64_t monitor_windows = 0;

    friend bool operator==(const supervisor_checkpoint&,
                           const supervisor_checkpoint&) = default;
};

/// \brief Raw byte-level serialization of a checkpoint (the payload of
/// the telemetry log's checkpoint records).
void serialize(base::byte_sink& sink, const supervisor_checkpoint& cp);
std::vector<std::uint8_t> serialize(const supervisor_checkpoint& cp);
/// \throws std::runtime_error on a truncated or malformed payload, or
/// on trailing bytes after it
supervisor_checkpoint parse_checkpoint(
    const std::vector<std::uint8_t>& bytes);

/// \brief The escalation supervisor for one channel.  Owns the monitor
/// (constructed at the baseline design) and the evidence ring; exposes
/// the three window hooks -- sink (verdicts), tap (evidence), barrier
/// (reconfiguration) -- so it drops onto any run_windows() caller (the
/// fleet's channel loop), and a one-call run() that drives the loop
/// itself.
class supervisor {
public:
    /// \brief Validate the policy and invert both designs' critical
    /// values (once, up front -- escalation must not pay the inversion).
    explicit supervisor(supervisor_config cfg);

    /// \brief Same, with both critical-value sets precomputed by the
    /// caller -- lets a fleet of identical supervised channels invert the
    /// distributions once instead of once per channel.
    supervisor(supervisor_config cfg, critical_values baseline_cv,
               critical_values escalated_cv);

    const supervisor_config& config() const { return cfg_; }
    supervision_state state() const { return state_.state; }
    monitor& inner() { return mon_; }
    const std::vector<supervision_event>& events() const
    {
        return state_.events;
    }

    /// \brief Record one window verdict (the sink half of the loop):
    /// updates the alarm policy, queues an escalation on its rising edge
    /// and tracks the clean dwell while escalated.
    void observe(const window_report& report);

    /// \brief Capture one raw window into the evidence ring (bounded at
    /// `evidence_windows`; oldest window evicted).
    void capture(std::uint64_t window_index, const std::uint64_t* words,
                 std::size_t nwords);

    /// \brief The between-windows barrier action: apply a queued
    /// escalation (reprogram through the control registers + offline-confirm
    /// the evidence) or a matured de-escalation.  Called by the window
    /// loop's barrier hook, never mid-window.
    void at_barrier(std::uint64_t next_window);

    // Hook adapters for external window loops (the fleet's channels).
    window_sink sink();
    window_tap tap();
    window_barrier barrier();

    /// \brief Run one source through the window loop for `windows`
    /// windows on the calling thread.
    /// \param source   entropy source (typically a source_model stack)
    /// \param windows  windows to test (0 tests nothing); counts windows
    ///                 of whatever design is live when each is framed
    /// \param schedule optional boundary hook run before the supervisor's
    ///                 own barrier with the index of the next window --
    ///                 the home of a source_model severity schedule
    /// \return the aggregated report (also available via report())
    /// \throws std::runtime_error naming the source when it runs dry
    supervision_report run(trng::entropy_source& source,
                           std::uint64_t windows,
                           window_barrier schedule = {});

    /// \brief Aggregate the counters accumulated so far (for external
    /// window loops that drive observe/capture/at_barrier themselves;
    /// `seconds` stays zero).
    supervision_report report() const;

    /// \brief Serialize the event timeline as a JSON array under `key`
    /// ("" at the root / inside an array), confirmation payloads
    /// included.
    void write_events(json_writer& json, std::string_view key) const;

    // ---------------------------------------------------------------
    // Durability: telemetry sink + checkpoint/restore.
    // ---------------------------------------------------------------

    /// \brief Attach a durable telemetry sink (borrowed; must outlive
    /// the supervisor or be detached with nullptr).  Logs the run
    /// configuration immediately; from then on every captured evidence
    /// window, every supervision event and a checkpoint at each
    /// escalate/de-escalate transition are handed to the log's writer
    /// thread -- the window loop only serializes a record and appends
    /// it to a mutex-guarded batch, so CRC32C and I/O stay off it.
    void attach_telemetry(telemetry_log* log);

    /// \brief Capture the complete between-windows state (legal at a
    /// window boundary only -- call from a barrier, after run(), or
    /// between external-pipeline windows).
    supervisor_checkpoint checkpoint() const;

    /// \brief Restore a checkpoint into this freshly constructed
    /// supervisor: reprograms the block to the checkpointed design tier,
    /// reloads the alarm/dwell/evidence/counter state and continues the
    /// window numbering.  The continuation is register-exact versus the
    /// uninterrupted run.
    /// \throws std::logic_error when this supervisor has already
    ///         observed windows
    /// \throws std::invalid_argument when the checkpoint does not fit
    ///         the configured policy (alarm history longer than the
    ///         policy window, evidence ring deeper than configured)
    void restore(const supervisor_checkpoint& cp);

    /// \brief Return to the state of a freshly constructed supervisor of
    /// this configuration, so one supervisor can run device after device:
    /// the monitor restarts (a throwing source may have left a window
    /// half-fed) and returns to the baseline design, a resident one; the
    /// alarm policy, the counters, the evidence ring, the timeline and the
    /// monitor's window and instruction counts clear, and a telemetry sink
    /// is detached.  The evidence ring's storage is kept, so a quiet
    /// device refills it without allocating.
    void reset();

private:
    void escalate(std::uint64_t next_window);
    void de_escalate(std::uint64_t next_window);
    /// Append an event to the timeline and hand it to the telemetry log.
    void push_event(std::uint64_t window, supervision_event_kind kind,
                    const std::string& from = {}, const std::string& to = {},
                    std::optional<confirmation_result> confirmation = {});

    supervisor_config cfg_;
    critical_values cv_baseline_;
    critical_values cv_escalated_;
    monitor mon_;
    windowed_alarm alarm_;
    telemetry_log* telemetry_ = nullptr; ///< borrowed durable sink
    /// Everything but the alarm and monitor fields, which alarm_ and
    /// mon_ own and checkpoint() fills in.
    supervisor_checkpoint state_;
    /// Evidence slots reset() took off the ring, reused as it refills.
    std::vector<evidence_window> spare_windows_;
};

} // namespace otf::core
