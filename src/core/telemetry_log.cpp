#include "core/telemetry_log.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

namespace otf::core {

// ---------------------------------------------------------------------
// Configuration serialization.
// ---------------------------------------------------------------------

// A design point is its label and then every design register as a u32,
// in table order.
static_assert(std::ranges::all_of(hw::config_registers,
                                  [](const hw::config_register& reg) {
                                      return reg.width <= 32;
                                  }),
              "every design register must fit the u32 it is logged as");

void serialize_config(base::byte_sink& sink, const hw::block_config& cfg)
{
    sink.str(cfg.name);
    for (const hw::config_register& reg : hw::config_registers) {
        sink.u32(static_cast<std::uint32_t>(reg.get(cfg)));
    }
}

hw::block_config parse_block_config(base::byte_cursor& cursor)
{
    hw::block_config cfg;
    cfg.name = cursor.str();
    for (const hw::config_register& reg : hw::config_registers) {
        const std::uint64_t value = cursor.u32();
        if ((value >> reg.width) != 0) {
            throw std::runtime_error(
                "parse_block_config: " + std::string(reg.name) + " = "
                + std::to_string(value) + " does not fit its "
                + std::to_string(reg.width) + "-bit register");
        }
        reg.set(cfg, value);
    }
    return cfg;
}

void serialize_config(base::byte_sink& sink, const supervisor_config& cfg)
{
    serialize_config(sink, cfg.baseline);
    serialize_config(sink, cfg.escalated);
    sink.f64(cfg.alpha);
    sink.u32(cfg.fail_threshold);
    sink.u32(cfg.policy_window);
    sink.u64(cfg.evidence_windows);
    sink.u64(cfg.dwell_windows);
    sink.f64(cfg.offline_alpha);
    // The offline test subset as the same bit-per-NIST-number mask the
    // selection keeps internally (bit i = test i, bits 1..15).
    std::uint16_t offline_mask = 0;
    for (unsigned t = 1; t <= 15; ++t) {
        if (cfg.offline_tests.has(t)) {
            offline_mask = static_cast<std::uint16_t>(offline_mask
                                                      | (1u << t));
        }
    }
    sink.u16(offline_mask);
    sink.u32(cfg.offline_min_failures);
    sink.u8(static_cast<std::uint8_t>(cfg.lane));
}

supervisor_config parse_supervisor_config(base::byte_cursor& cursor)
{
    supervisor_config cfg;
    cfg.baseline = parse_block_config(cursor);
    cfg.escalated = parse_block_config(cursor);
    cfg.alpha = cursor.f64();
    cfg.fail_threshold = cursor.u32();
    cfg.policy_window = cursor.u32();
    cfg.evidence_windows = cursor.u64();
    cfg.dwell_windows = cursor.u64();
    cfg.offline_alpha = cursor.f64();
    const std::uint16_t offline_mask = cursor.u16();
    nist::battery_selection offline;
    for (unsigned t = 1; t <= 15; ++t) {
        if ((offline_mask & (1u << t)) != 0) {
            offline.with(t);
        }
    }
    cfg.offline_tests = offline;
    cfg.offline_min_failures = cursor.u32();
    // Codes 0 and 3 are the retired word and bit-sliced lanes, both
    // register-exact with the span lane that replaced them; no writer
    // ever emitted a code above 3.
    const std::uint8_t lane = cursor.u8();
    if (lane > 3) {
        throw std::runtime_error(
            "parse_supervisor_config: unknown ingest_lane "
            + std::to_string(lane));
    }
    cfg.lane = lane == static_cast<std::uint8_t>(ingest_lane::per_bit)
        ? ingest_lane::per_bit
        : ingest_lane::span;
    return cfg;
}

// ---------------------------------------------------------------------
// telemetry_log: producers serialize + batch, one thread writes.
// ---------------------------------------------------------------------

telemetry_log::telemetry_log(telemetry_config cfg)
    : cfg_(std::move(cfg)),
      writer_(cfg_.path, telemetry_schema, cfg_.max_bytes)
{
    writer_thread_ = std::thread([this] { writer_loop(); });
}

telemetry_log::~telemetry_log()
{
    try {
        close();
    } catch (const std::exception&) {
        // A destructor must not throw; close() reports the error.
    }
}

void telemetry_log::enqueue(telemetry_record kind, base::byte_sink&& sink)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!closed_ && pending_.size() < telemetry_max_pending) {
            pending_.push_back({kind, sink.take()});
            logged_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
    dropped_.fetch_add(1, std::memory_order_relaxed);
}

void telemetry_log::log_run_config(const supervisor_config& cfg)
{
    base::byte_sink sink;
    serialize_config(sink, cfg);
    // The writer's capture policy rides in the same record, so the
    // replay side knows whether window records are expected.
    sink.boolean(cfg_.log_windows);
    enqueue(telemetry_record::run_config, std::move(sink));
}

void telemetry_log::log_window(std::uint64_t window_index,
                               const std::uint64_t* words,
                               std::size_t nwords)
{
    if (!cfg_.log_windows) {
        return;
    }
    base::byte_sink sink;
    serialize_window(sink, window_index, words, nwords);
    enqueue(telemetry_record::window, std::move(sink));
}

void telemetry_log::log_event(const supervision_event& ev)
{
    base::byte_sink sink;
    serialize_event(sink, ev);
    enqueue(telemetry_record::event, std::move(sink));
}

void telemetry_log::log_checkpoint(const supervisor_checkpoint& cp)
{
    base::byte_sink sink;
    serialize(sink, cp);
    enqueue(telemetry_record::checkpoint, std::move(sink));
}

void telemetry_log::close()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    closing_.notify_one();
    if (writer_thread_.joinable()) {
        writer_thread_.join();
    }
    if (error_) {
        std::rethrow_exception(std::exchange(error_, nullptr));
    }
}

void telemetry_log::write_batch(const std::vector<record>& batch)
{
    std::size_t done = 0;
    if (!error_) {
        try {
            for (; done < batch.size(); ++done) {
                const record& r = batch[done];
                if (!writer_.append(static_cast<std::uint8_t>(r.kind),
                                    r.payload)) {
                    // Segment bound reached: the frame was dropped whole.
                    dropped_.fetch_add(1, std::memory_order_relaxed);
                }
            }
        } catch (const std::exception&) {
            error_ = std::current_exception();
        }
    }
    // After a write error nothing more reaches the segment.
    dropped_.fetch_add(batch.size() - done, std::memory_order_relaxed);
    bytes_written_.store(writer_.bytes_written(),
                         std::memory_order_relaxed);
}

void telemetry_log::writer_loop()
{
    std::vector<record> batch;
    for (bool last = false; !last;) {
        {
            // Producers never notify: durability has no latency
            // deadline, so records wait for the next sweep (or close())
            // and the supervisor's thread never pays for a wakeup.
            std::unique_lock<std::mutex> lock(mutex_);
            closing_.wait_for(lock, std::chrono::milliseconds(2),
                              [this] { return closed_; });
            batch.swap(pending_);
            last = closed_;
        }
        write_batch(batch);
        batch.clear();
    }
    try {
        writer_.close();
    } catch (const std::exception&) {
        if (!error_) {
            error_ = std::current_exception();
        }
    }
}

// ---------------------------------------------------------------------
// Reader side.
// ---------------------------------------------------------------------

namespace {

/// Leftover bytes mean another schema wrote the record: fail loudly.
void expect_exhausted(const base::byte_cursor& cursor, const char* kind)
{
    if (!cursor.exhausted()) {
        throw std::runtime_error("parse_telemetry: trailing bytes after a "
                                 + std::string(kind) + " record");
    }
}

} // namespace

telemetry_run parse_telemetry(const base::wal_read_result& wal)
{
    if (wal.header_ok && wal.schema != telemetry_schema) {
        throw std::runtime_error(
            "parse_telemetry: segment schema " + std::to_string(wal.schema)
            + " is not this reader's schema "
            + std::to_string(telemetry_schema));
    }
    telemetry_run run;
    run.header_ok = wal.header_ok;
    run.schema = wal.schema;
    run.clean = wal.clean;
    run.file_bytes = wal.file_bytes;
    run.valid_bytes = wal.valid_bytes;
    for (const base::wal_record& rec : wal.records) {
        base::byte_cursor cursor(rec.payload);
        switch (static_cast<telemetry_record>(rec.type)) {
        case telemetry_record::run_config:
            run.config = parse_supervisor_config(cursor);
            run.windows_logged = cursor.boolean();
            expect_exhausted(cursor, "run_config");
            run.has_config = true;
            run.order.push_back({telemetry_record::run_config, 0});
            break;
        case telemetry_record::window:
            run.order.push_back(
                {telemetry_record::window, run.windows.size()});
            run.windows.push_back(parse_window(cursor));
            expect_exhausted(cursor, "window");
            break;
        case telemetry_record::event:
            run.order.push_back(
                {telemetry_record::event, run.events.size()});
            run.events.push_back(parse_event(cursor));
            expect_exhausted(cursor, "event");
            break;
        case telemetry_record::checkpoint:
            // parse_checkpoint rejects trailing bytes itself.
            run.order.push_back(
                {telemetry_record::checkpoint, run.checkpoints.size()});
            run.checkpoints.push_back(parse_checkpoint(rec.payload));
            break;
        default:
            // A newer writer's record kind: skip, do not fail the run.
            ++run.unknown_records;
            break;
        }
    }
    return run;
}

telemetry_run read_telemetry(const std::string& path)
{
    return parse_telemetry(base::wal_read(path));
}

replay_report verify_replay(const telemetry_run& run)
{
    if (!run.has_config) {
        throw std::invalid_argument(
            "verify_replay: the log carries no run_config record; "
            "nothing to parameterize the offline battery with");
    }
    replay_report rep;
    std::vector<evidence_window> ring;
    std::vector<supervision_event> seen;
    confirmation_storage storage;
    const auto replay = [&](replay_confirmation& rc,
                            const std::vector<evidence_window>& evidence) {
        rc.replayed = confirm_evidence(evidence, run.config, storage);
        rc.match = (rc.live == rc.replayed);
        if (!rc.match) {
            rep.verified = false;
        }
    };
    // Transitions-only runs: the confirmation waits for the escalation
    // checkpoint, whose evidence ring is what the live battery saw.
    std::optional<std::size_t> pending;
    for (const telemetry_run::item& item : run.order) {
        switch (item.kind) {
        case telemetry_record::run_config:
            break;
        case telemetry_record::window: {
            // The ring the live supervisor kept, by the same code.
            const evidence_window& win = run.windows[item.index];
            push_evidence(ring, run.config.evidence_windows, win.index,
                          win.words.data(), win.words.size());
            ++rep.windows_replayed;
            break;
        }
        case telemetry_record::event: {
            const supervision_event& ev = run.events[item.index];
            seen.push_back(ev);
            ++rep.events_replayed;
            if (ev.kind == supervision_event_kind::confirmed
                && ev.confirmation) {
                replay_confirmation rc;
                rc.window = ev.window_index;
                rc.live = *ev.confirmation;
                if (run.windows_logged) {
                    // Full capture: the ring rebuilt from the raw window
                    // records -- an independent reconstruction of the
                    // evidence.
                    replay(rc, ring);
                } else {
                    pending = rep.confirmations.size();
                }
                rep.confirmations.push_back(std::move(rc));
            }
            break;
        }
        case telemetry_record::checkpoint: {
            // A checkpoint is taken right after its transition's events
            // were logged: its timeline must equal everything replayed
            // so far, field for field.
            const supervisor_checkpoint& cp =
                run.checkpoints[item.index];
            ++rep.checkpoints_checked;
            if (cp.events != seen) {
                rep.checkpoints_consistent = false;
                rep.verified = false;
            }
            // Full capture: the ring the checkpoint carries must be
            // exactly the one the window records rebuild.
            if (run.windows_logged && cp.evidence_ring != ring) {
                rep.ring_consistent = false;
                rep.verified = false;
            }
            if (pending) {
                replay(rep.confirmations[*pending], cp.evidence_ring);
                pending.reset();
            }
            break;
        }
        }
    }
    if (pending) {
        // The checkpoint that would have carried the evidence was lost
        // (torn tail): the confirmation cannot be verified.
        rep.verified = false;
    }
    return rep;
}

} // namespace otf::core
