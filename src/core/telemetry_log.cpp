#include "core/telemetry_log.hpp"

#include <bit>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <utility>

namespace otf::core {

// ---------------------------------------------------------------------
// Configuration serialization.
// ---------------------------------------------------------------------

void serialize_config(base::byte_sink& sink, const hw::block_config& cfg)
{
    sink.str(cfg.name);
    sink.u8(static_cast<std::uint8_t>(cfg.log2_n));
    sink.u16(cfg.tests.to_raw());
    sink.u8(static_cast<std::uint8_t>(cfg.bf_log2_m));
    sink.u8(static_cast<std::uint8_t>(cfg.lr_log2_m));
    sink.u8(static_cast<std::uint8_t>(cfg.lr_v_lo));
    sink.u8(static_cast<std::uint8_t>(cfg.lr_v_hi));
    sink.u8(static_cast<std::uint8_t>(cfg.template_length));
    sink.u32(cfg.t7_template);
    sink.u8(static_cast<std::uint8_t>(cfg.t7_log2_m));
    sink.u32(cfg.t8_template);
    sink.u8(static_cast<std::uint8_t>(cfg.t8_log2_m));
    sink.u8(static_cast<std::uint8_t>(cfg.t8_max_count));
    sink.boolean(cfg.serial_transfer_marginals);
    sink.boolean(cfg.double_buffered);
}

hw::block_config parse_block_config(base::byte_cursor& cursor)
{
    hw::block_config cfg;
    cfg.name = cursor.str();
    cfg.log2_n = cursor.u8();
    cfg.tests = hw::test_set::from_raw(cursor.u16());
    cfg.bf_log2_m = cursor.u8();
    cfg.lr_log2_m = cursor.u8();
    cfg.lr_v_lo = cursor.u8();
    cfg.lr_v_hi = cursor.u8();
    cfg.template_length = cursor.u8();
    cfg.t7_template = cursor.u32();
    cfg.t7_log2_m = cursor.u8();
    cfg.t8_template = cursor.u32();
    cfg.t8_log2_m = cursor.u8();
    cfg.t8_max_count = cursor.u8();
    cfg.serial_transfer_marginals = cursor.boolean();
    cfg.double_buffered = cursor.boolean();
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
    sink.u64(window_index);
    sink.u32(static_cast<std::uint32_t>(nwords));
    if constexpr (std::endian::native == std::endian::little) {
        // The wire format is little-endian u64s; on a little-endian
        // host the window's in-memory image already is that, and this
        // runs per window on the pump thread.
        sink.raw(words, nwords * sizeof(std::uint64_t));
    } else {
        for (std::size_t i = 0; i < nwords; ++i) {
            sink.u64(words[i]);
        }
    }
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
    const std::vector<std::uint8_t> bytes = serialize(cp);
    sink.raw(bytes.data(), bytes.size());
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

telemetry_run parse_telemetry(const base::wal_read_result& wal)
{
    telemetry_run run;
    run.header_ok = wal.header_ok;
    run.schema = wal.schema;
    run.clean = wal.clean;
    run.file_bytes = wal.file_bytes;
    run.valid_bytes = wal.valid_bytes;
    for (const base::wal_record& rec : wal.records) {
        switch (static_cast<telemetry_record>(rec.type)) {
        case telemetry_record::run_config: {
            base::byte_cursor cursor(rec.payload);
            run.config = parse_supervisor_config(cursor);
            run.windows_logged = cursor.boolean();
            run.has_config = true;
            run.order.push_back({telemetry_record::run_config, 0});
            break;
        }
        case telemetry_record::window: {
            base::byte_cursor cursor(rec.payload);
            logged_window win;
            win.index = cursor.u64();
            const std::uint32_t nwords = cursor.u32();
            win.words.reserve(cursor.reserve_bound(nwords));
            for (std::uint32_t i = 0; i < nwords; ++i) {
                win.words.push_back(cursor.u64());
            }
            run.order.push_back(
                {telemetry_record::window, run.windows.size()});
            run.windows.push_back(std::move(win));
            break;
        }
        case telemetry_record::event: {
            base::byte_cursor cursor(rec.payload);
            run.order.push_back(
                {telemetry_record::event, run.events.size()});
            run.events.push_back(parse_event(cursor));
            break;
        }
        case telemetry_record::checkpoint: {
            run.order.push_back(
                {telemetry_record::checkpoint, run.checkpoints.size()});
            run.checkpoints.push_back(
                parse_checkpoint(rec.payload.data(), rec.payload.size()));
            break;
        }
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

namespace {

/// The replay-side twin of supervisor::confirm_offline(): identical
/// concatenation order, identical battery invocation, so the verdict is
/// bit-identical when the logged evidence is.
confirmation_result confirm_from_ring(
    const std::vector<const std::vector<std::uint64_t>*>& ring,
    const supervisor_config& cfg)
{
    confirmation_result conf;
    bit_sequence seq;
    std::size_t total_words = 0;
    for (const std::vector<std::uint64_t>* words : ring) {
        total_words += words->size();
    }
    seq.reserve(total_words * 64);
    for (const std::vector<std::uint64_t>* words : ring) {
        for (const std::uint64_t word : *words) {
            for (unsigned i = 0; i < 64; ++i) {
                seq.push_back(((word >> i) & 1u) != 0);
            }
        }
        ++conf.evidence_windows;
    }
    conf.evidence_bits = seq.size();
    conf.battery =
        nist::run_battery(seq, cfg.offline_alpha, cfg.offline_tests);
    conf.confirmed = conf.battery.failed >= cfg.offline_min_failures;
    return conf;
}

} // namespace

replay_report verify_replay(const telemetry_run& run)
{
    if (!run.has_config) {
        throw std::invalid_argument(
            "verify_replay: the log carries no run_config record; "
            "nothing to parameterize the offline battery with");
    }
    replay_report rep;
    std::deque<const logged_window*> ring;
    std::vector<supervision_event> seen;
    // Transitions-only runs: the confirmation waits for the escalation
    // checkpoint, whose evidence ring is what the live battery saw.
    std::size_t pending = std::size_t(-1);
    for (const telemetry_run::item& item : run.order) {
        switch (item.kind) {
        case telemetry_record::run_config:
            break;
        case telemetry_record::window:
            ring.push_back(&run.windows[item.index]);
            while (ring.size() > run.config.evidence_windows) {
                ring.pop_front();
            }
            ++rep.windows_replayed;
            break;
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
                    // Full capture: rebuild the ring from the raw
                    // window records -- an independent reconstruction
                    // of the evidence.
                    std::vector<const std::vector<std::uint64_t>*> r;
                    r.reserve(ring.size());
                    for (const logged_window* win : ring) {
                        r.push_back(&win->words);
                    }
                    rc.replayed = confirm_from_ring(r, run.config);
                    rc.match = (rc.live == rc.replayed);
                    if (!rc.match) {
                        rep.verified = false;
                    }
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
            if (run.windows_logged) {
                // Full capture: the ring the checkpoint carries must be
                // exactly the one the window records rebuild.
                bool same = cp.evidence_ring.size() == ring.size();
                for (std::size_t i = 0; same && i < ring.size(); ++i) {
                    same = cp.evidence_ring[i].index == ring[i]->index
                        && cp.evidence_ring[i].words == ring[i]->words;
                }
                if (!same) {
                    rep.ring_consistent = false;
                    rep.verified = false;
                }
            }
            if (pending != std::size_t(-1)) {
                replay_confirmation& rc = rep.confirmations[pending];
                std::vector<const std::vector<std::uint64_t>*> r;
                r.reserve(cp.evidence_ring.size());
                for (const supervisor_checkpoint::evidence& e :
                     cp.evidence_ring) {
                    r.push_back(&e.words);
                }
                rc.replayed = confirm_from_ring(r, run.config);
                rc.match = (rc.live == rc.replayed);
                if (!rc.match) {
                    rep.verified = false;
                }
                pending = std::size_t(-1);
            }
            break;
        }
        }
    }
    if (pending != std::size_t(-1)) {
        // The checkpoint that would have carried the evidence was lost
        // (torn tail): the confirmation cannot be verified.
        rep.verified = false;
    }
    return rep;
}

} // namespace otf::core
