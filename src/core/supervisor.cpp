#include "core/supervisor.hpp"

#include "core/telemetry_log.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <iterator>
#include <stdexcept>

namespace otf::core {

std::string to_string(supervision_event_kind kind)
{
    switch (kind) {
    case supervision_event_kind::alarm_raised:
        return "alarm_raised";
    case supervision_event_kind::escalated:
        return "escalated";
    case supervision_event_kind::confirmed:
        return "confirmed";
    case supervision_event_kind::alarm_cleared:
        return "alarm_cleared";
    case supervision_event_kind::de_escalated:
        return "de_escalated";
    }
    throw std::logic_error("supervision_event_kind: invalid value");
}

void supervisor_config::validate() const
{
    baseline.validate();
    escalated.validate();
    if (baseline.n() < 64 || escalated.n() < 64) {
        throw std::invalid_argument(
            "supervisor_config: both designs must be streamable "
            "(n >= 64 bits)");
    }
    if (evidence_windows == 0) {
        throw std::invalid_argument(
            "supervisor_config: need an evidence ring of >= 1 window");
    }
    if (dwell_windows == 0) {
        throw std::invalid_argument(
            "supervisor_config: need a de-escalation dwell of >= 1 "
            "window");
    }
    if (offline_tests.empty()) {
        throw std::invalid_argument(
            "supervisor_config: offline confirmation needs >= 1 test");
    }
    if (offline_min_failures == 0) {
        throw std::invalid_argument(
            "supervisor_config: offline_min_failures must be >= 1");
    }
    // The windowed_alarm constructor is the authoritative validity check
    // of the alarm policy.
    [[maybe_unused]] const windowed_alarm policy_check(fail_threshold,
                                                      policy_window);
}

supervisor::supervisor(supervisor_config cfg)
    : supervisor((cfg.validate(), cfg),
                 compute_critical_values(cfg.baseline, cfg.alpha),
                 compute_critical_values(cfg.escalated, cfg.alpha))
{
}

supervisor::supervisor(supervisor_config cfg, critical_values baseline_cv,
                       critical_values escalated_cv)
    : cfg_((cfg.validate(), std::move(cfg))),
      cv_baseline_(std::move(baseline_cv)),
      cv_escalated_(std::move(escalated_cv)),
      mon_(cfg_.baseline, cv_baseline_),
      alarm_(cfg_.fail_threshold, cfg_.policy_window)
{
    // Sized for a full ring, so reset() moves one into the spares without
    // allocating.
    spare_windows_.reserve(cfg_.evidence_windows);
}

// ---------------------------------------------------------------------
// Raw event / window / checkpoint serialization (fixed-width
// little-endian fields in declaration order; strings length-prefixed,
// doubles as IEEE bit patterns; a battery entry is its id, a u8 test
// number and the sub-index as an i8).  Shared by the telemetry log and the
// checkpoint payloads, so a replayed record parses back bit-identical.
// ---------------------------------------------------------------------

void serialize_event(base::byte_sink& sink, const supervision_event& ev)
{
    sink.u64(ev.sequence);
    sink.u64(ev.window_index);
    sink.u8(static_cast<std::uint8_t>(ev.kind));
    sink.u64(ev.dwell);
    sink.str(ev.from_design);
    sink.str(ev.to_design);
    sink.boolean(ev.confirmation.has_value());
    if (ev.confirmation) {
        const confirmation_result& conf = *ev.confirmation;
        sink.u64(conf.evidence_windows);
        sink.u64(conf.evidence_bits);
        sink.boolean(conf.confirmed);
        sink.u32(conf.battery.passed);
        sink.u32(conf.battery.failed);
        sink.u32(conf.battery.skipped);
        sink.u32(static_cast<std::uint32_t>(conf.battery.entries.size()));
        for (const nist::battery_entry& entry : conf.battery.entries) {
            sink.u8(static_cast<std::uint8_t>(entry.test_number));
            sink.u8(static_cast<std::uint8_t>(entry.sub));
            sink.f64(entry.p_value);
            sink.boolean(entry.applicable);
            sink.boolean(entry.pass);
        }
    }
}

supervision_event parse_event(base::byte_cursor& cursor)
{
    supervision_event ev;
    ev.sequence = cursor.u64();
    ev.window_index = cursor.u64();
    const std::uint8_t kind = cursor.u8();
    if (kind > static_cast<std::uint8_t>(
            supervision_event_kind::de_escalated)) {
        throw std::runtime_error(
            "parse_event: unknown supervision_event_kind "
            + std::to_string(kind));
    }
    ev.kind = static_cast<supervision_event_kind>(kind);
    ev.dwell = cursor.u64();
    ev.from_design = cursor.str();
    ev.to_design = cursor.str();
    if (cursor.boolean()) {
        confirmation_result conf;
        conf.evidence_windows = cursor.u64();
        conf.evidence_bits = cursor.u64();
        conf.confirmed = cursor.boolean();
        conf.battery.passed = cursor.u32();
        conf.battery.failed = cursor.u32();
        conf.battery.skipped = cursor.u32();
        const std::uint32_t entries = cursor.u32();
        conf.battery.entries.reserve(cursor.reserve_bound(entries));
        for (std::uint32_t i = 0; i < entries; ++i) {
            nist::battery_entry& entry = conf.battery.entries.emplace_back();
            entry.test_number = cursor.u8();
            entry.sub = static_cast<std::int8_t>(cursor.u8());
            if (!nist::is_entry_id(entry.test_number, entry.sub)) {
                throw std::runtime_error(
                    "parse_event: no battery entry (test "
                    + std::to_string(entry.test_number) + ", sub "
                    + std::to_string(entry.sub) + ")");
            }
            entry.p_value = cursor.f64();
            entry.applicable = cursor.boolean();
            entry.pass = cursor.boolean();
        }
        ev.confirmation = std::move(conf);
    }
    return ev;
}

void serialize_window(base::byte_sink& sink, std::uint64_t index,
                      const std::uint64_t* words, std::size_t nwords)
{
    sink.u64(index);
    sink.u32(static_cast<std::uint32_t>(nwords));
    if constexpr (std::endian::native == std::endian::little) {
        // The wire format is little-endian u64s; on a little-endian host
        // the window's in-memory image already is that, and this runs
        // per window on the window loop.
        sink.raw(words, nwords * sizeof(std::uint64_t));
    } else {
        for (std::size_t i = 0; i < nwords; ++i) {
            sink.u64(words[i]);
        }
    }
}

evidence_window parse_window(base::byte_cursor& cursor)
{
    evidence_window win;
    win.index = cursor.u64();
    const std::uint32_t nwords = cursor.u32();
    win.words.reserve(cursor.reserve_bound(nwords));
    for (std::uint32_t i = 0; i < nwords; ++i) {
        win.words.push_back(cursor.u64());
    }
    return win;
}

void serialize(base::byte_sink& sink, const supervisor_checkpoint& cp)
{
    sink.u8(static_cast<std::uint8_t>(cp.state));
    sink.boolean(cp.pending_escalation);
    sink.u64(cp.clean_streak);
    sink.u32(static_cast<std::uint32_t>(cp.alarm_history.size()));
    for (const bool failed : cp.alarm_history) {
        sink.boolean(failed);
    }
    sink.boolean(cp.alarm_sticky);
    sink.u64(cp.windows);
    sink.u64(cp.failures);
    sink.u64(cp.bits);
    sink.u64(cp.windows_escalated);
    sink.u32(cp.escalations);
    sink.u32(cp.confirmed_escalations);
    sink.u32(cp.de_escalations);
    sink.boolean(cp.has_first_escalation);
    sink.u64(cp.first_escalation_window);
    for (const hw::test_id id : hw::all_tests) {
        sink.u64(cp.failures_by_test[id]);
    }
    sink.u32(static_cast<std::uint32_t>(cp.evidence_ring.size()));
    for (const evidence_window& win : cp.evidence_ring) {
        serialize_window(sink, win.index, win.words.data(),
                         win.words.size());
    }
    sink.u32(static_cast<std::uint32_t>(cp.events.size()));
    for (const supervision_event& ev : cp.events) {
        serialize_event(sink, ev);
    }
    sink.u64(cp.monitor_windows);
}

std::vector<std::uint8_t> serialize(const supervisor_checkpoint& cp)
{
    base::byte_sink sink;
    serialize(sink, cp);
    return sink.take();
}

supervisor_checkpoint parse_checkpoint(
    const std::vector<std::uint8_t>& bytes)
{
    base::byte_cursor cursor(bytes);
    supervisor_checkpoint cp;
    const std::uint8_t state = cursor.u8();
    if (state > static_cast<std::uint8_t>(supervision_state::escalated)) {
        throw std::runtime_error(
            "parse_checkpoint: unknown supervision_state "
            + std::to_string(state));
    }
    cp.state = static_cast<supervision_state>(state);
    cp.pending_escalation = cursor.boolean();
    cp.clean_streak = cursor.u64();
    const std::uint32_t history = cursor.u32();
    cp.alarm_history.reserve(cursor.reserve_bound(history));
    for (std::uint32_t i = 0; i < history; ++i) {
        cp.alarm_history.push_back(cursor.boolean());
    }
    cp.alarm_sticky = cursor.boolean();
    cp.windows = cursor.u64();
    cp.failures = cursor.u64();
    cp.bits = cursor.u64();
    cp.windows_escalated = cursor.u64();
    cp.escalations = cursor.u32();
    cp.confirmed_escalations = cursor.u32();
    cp.de_escalations = cursor.u32();
    cp.has_first_escalation = cursor.boolean();
    cp.first_escalation_window = cursor.u64();
    for (const hw::test_id id : hw::all_tests) {
        cp.failures_by_test[id] = cursor.u64();
    }
    const std::uint32_t evidence = cursor.u32();
    cp.evidence_ring.reserve(cursor.reserve_bound(evidence));
    for (std::uint32_t i = 0; i < evidence; ++i) {
        cp.evidence_ring.push_back(parse_window(cursor));
    }
    const std::uint32_t events = cursor.u32();
    cp.events.reserve(cursor.reserve_bound(events));
    for (std::uint32_t i = 0; i < events; ++i) {
        cp.events.push_back(parse_event(cursor));
    }
    cp.monitor_windows = cursor.u64();
    if (!cursor.exhausted()) {
        throw std::runtime_error(
            "parse_checkpoint: " + std::to_string(cursor.remaining())
            + " trailing bytes after the checkpoint payload");
    }
    return cp;
}

void push_evidence(std::vector<evidence_window>& ring, std::size_t depth,
                   std::uint64_t index, const std::uint64_t* words,
                   std::size_t nwords, std::vector<evidence_window>* spare)
{
    if (ring.size() < depth) {
        if (spare != nullptr && !spare->empty()) {
            ring.push_back(std::move(spare->back()));
            spare->pop_back();
        } else {
            ring.emplace_back();
        }
    } else if (ring.empty()) {
        return; // depth 0 (possible in a logged config) keeps nothing
    } else {
        // Full: the oldest slot becomes the newest, keeping its buffer.
        std::rotate(ring.begin(), ring.begin() + 1, ring.end());
    }
    evidence_window& slot = ring.back();
    slot.index = index;
    slot.words.assign(words, words + nwords);
}

confirmation_result confirm_evidence(const std::vector<evidence_window>& ring,
                                     const supervisor_config& cfg)
{
    std::vector<std::uint64_t> words;
    for (const evidence_window& win : ring) {
        words.insert(words.end(), win.words.begin(), win.words.end());
    }
    confirmation_result conf;
    conf.evidence_windows = ring.size();
    conf.evidence_bits = words.size() * 64;
    conf.battery = nist::run_battery(
        bit_sequence::from_words(words, conf.evidence_bits),
        cfg.offline_alpha, cfg.offline_tests);
    conf.confirmed = conf.battery.failed >= cfg.offline_min_failures;
    return conf;
}

void supervisor::push_event(std::uint64_t window, supervision_event_kind kind,
                            const std::string& from, const std::string& to,
                            std::optional<confirmation_result> confirmation)
{
    supervision_event& ev = state_.events.emplace_back();
    ev.sequence = state_.events.size() - 1;
    ev.window_index = window;
    ev.kind = kind;
    ev.dwell = state_.clean_streak;
    ev.from_design = from;
    ev.to_design = to;
    ev.confirmation = std::move(confirmation);
    if (telemetry_ != nullptr) {
        telemetry_->log_event(ev);
    }
}

void supervisor::observe(const window_report& report)
{
    ++state_.windows;
    state_.bits += mon_.config().n();
    const bool escalated = state_.state == supervision_state::escalated;
    if (escalated) {
        ++state_.windows_escalated;
    }
    const bool failed = !report.software.all_pass;
    if (failed) {
        ++state_.failures;
        for (const test_verdict& v : report.software.verdicts) {
            if (!v.pass) {
                ++state_.failures_by_test[v.id];
            }
        }
    }
    alarm_.record(failed);
    if (alarm_.rose()) {
        if (!escalated) {
            state_.pending_escalation = true;
        }
        push_event(report.window_index,
                   supervision_event_kind::alarm_raised);
    }
    if (escalated) {
        state_.clean_streak = failed ? 0 : state_.clean_streak + 1;
    }
}

void supervisor::capture(std::uint64_t window_index,
                         const std::uint64_t* words, std::size_t nwords)
{
    push_evidence(state_.evidence_ring, cfg_.evidence_windows, window_index,
                  words, nwords, &spare_windows_);
    if (telemetry_ != nullptr) {
        telemetry_->log_window(window_index, words, nwords);
    }
}

void supervisor::at_barrier(std::uint64_t next_window)
{
    if (state_.pending_escalation
        && state_.state == supervision_state::baseline) {
        escalate(next_window);
        return;
    }
    state_.pending_escalation = false;
    if (state_.state == supervision_state::escalated
        && state_.clean_streak >= cfg_.dwell_windows) {
        de_escalate(next_window);
    }
}

void supervisor::escalate(std::uint64_t next_window)
{
    state_.pending_escalation = false;
    push_event(next_window, supervision_event_kind::escalated,
               cfg_.baseline.name, cfg_.escalated.name);
    // The on-the-fly reconfiguration itself: the live block is
    // reprogrammed through the control-register write path between windows.
    mon_.reconfigure(cfg_.escalated, cv_escalated_);
    state_.state = supervision_state::escalated;
    state_.clean_streak = 0;
    ++state_.escalations;
    if (!state_.has_first_escalation) {
        state_.has_first_escalation = true;
        state_.first_escalation_window = next_window;
    }

    // Offline confirmation: replay the captured evidence through the
    // composable battery.  Runs on the window loop's thread -- the
    // deployment analogue of the MCU shipping the suspicious stretch to a
    // host.
    confirmation_result conf = confirm_evidence(state_.evidence_ring, cfg_);
    if (conf.confirmed) {
        ++state_.confirmed_escalations;
    }
    push_event(next_window, supervision_event_kind::confirmed, {}, {},
               std::move(conf));
    if (telemetry_ != nullptr) {
        // A state transition is the restart-relevant moment: persist the
        // full between-windows state so a crashed fleet resumes from the
        // escalated design with its alarm context intact.
        telemetry_->log_checkpoint(checkpoint());
    }
}

void supervisor::de_escalate(std::uint64_t next_window)
{
    alarm_.reset();
    push_event(next_window, supervision_event_kind::alarm_cleared);
    push_event(next_window, supervision_event_kind::de_escalated,
               cfg_.escalated.name, cfg_.baseline.name);
    mon_.reconfigure(cfg_.baseline, cv_baseline_);
    state_.state = supervision_state::baseline;
    state_.clean_streak = 0;
    ++state_.de_escalations;
    if (telemetry_ != nullptr) {
        telemetry_->log_checkpoint(checkpoint());
    }
}

window_sink supervisor::sink()
{
    return [this](const window_report& report) { observe(report); };
}

window_tap supervisor::tap()
{
    return [this](std::uint64_t window_index, const std::uint64_t* words,
                  std::size_t nwords) {
        capture(window_index, words, nwords);
    };
}

window_barrier supervisor::barrier()
{
    return [this](std::uint64_t next_window) { at_barrier(next_window); };
}

supervision_report supervisor::run(trng::entropy_source& source,
                                   std::uint64_t windows,
                                   window_barrier schedule)
{
    const auto start = std::chrono::steady_clock::now();
    window_hooks hooks;
    hooks.before = [this, &schedule](std::uint64_t next_window) {
        if (schedule) {
            schedule(next_window);
        }
        at_barrier(next_window);
    };
    hooks.tap = tap();
    hooks.sink = sink();
    run_windows(mon_, source, windows, cfg_.lane, hooks);

    supervision_report rep = report();
    rep.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    return rep;
}

supervision_report supervisor::report() const
{
    supervision_report rep;
    rep.windows = state_.windows;
    rep.failures = state_.failures;
    rep.bits = state_.bits;
    rep.escalations = state_.escalations;
    rep.confirmed_escalations = state_.confirmed_escalations;
    rep.de_escalations = state_.de_escalations;
    rep.windows_escalated = state_.windows_escalated;
    rep.first_escalation_window = state_.has_first_escalation
        ? state_.first_escalation_window
        : state_.windows;
    rep.alarm = alarm_.alarm();
    rep.final_state = state_.state;
    rep.failures_by_test = state_.failures_by_test;
    rep.events = state_.events;
    return rep;
}

void supervisor::attach_telemetry(telemetry_log* log)
{
    telemetry_ = log;
    if (telemetry_ != nullptr) {
        telemetry_->log_run_config(cfg_);
    }
}

supervisor_checkpoint supervisor::checkpoint() const
{
    supervisor_checkpoint cp = state_;
    cp.alarm_history = alarm_.history();
    cp.alarm_sticky = alarm_.alarm();
    cp.monitor_windows = mon_.windows_tested();
    return cp;
}

void supervisor::restore(const supervisor_checkpoint& cp)
{
    if (state_.windows != 0 || !state_.events.empty()
        || state_.state != supervision_state::baseline) {
        throw std::logic_error(
            "supervisor: restore() needs a freshly constructed "
            "supervisor (this one has already observed windows)");
    }
    if (cp.evidence_ring.size() > cfg_.evidence_windows) {
        throw std::invalid_argument(
            "supervisor: checkpoint evidence ring of "
            + std::to_string(cp.evidence_ring.size())
            + " windows exceeds the configured depth of "
            + std::to_string(cfg_.evidence_windows));
    }
    // The alarm restore validates the history against the policy window.
    alarm_.restore(cp.alarm_history, cp.alarm_sticky);
    state_ = cp;
    // Reprogram the block to the checkpointed tier (the restart-time
    // analogue of the live escalation's control-register write path), then
    // continue the global window numbering.
    if (state_.state == supervision_state::escalated) {
        mon_.reconfigure(cfg_.escalated, cv_escalated_);
    }
    mon_.restore_window_count(cp.monitor_windows);
}

void supervisor::reset()
{
    mon_.reset();
    mon_.reconfigure(cfg_.baseline, cv_baseline_);
    alarm_.reset();
    telemetry_ = nullptr;
    // The evidence ring keeps its storage for the next run: the captured
    // windows (word buffers included) move to the spares, the emptied
    // vector keeps its capacity.
    std::vector<evidence_window> ring = std::move(state_.evidence_ring);
    std::move(ring.begin(), ring.end(), std::back_inserter(spare_windows_));
    ring.clear();
    state_ = supervisor_checkpoint{};
    state_.evidence_ring = std::move(ring);
}

void supervisor::write_events(json_writer& json,
                              std::string_view key) const
{
    json.begin_array(key);
    for (const supervision_event& ev : state_.events) {
        json.begin_object();
        json.value("sequence", ev.sequence);
        json.value("window", ev.window_index);
        json.value("kind", to_string(ev.kind));
        json.value("dwell", ev.dwell);
        if (!ev.from_design.empty()) {
            json.value("from", ev.from_design);
            json.value("to", ev.to_design);
        }
        if (ev.confirmation) {
            const confirmation_result& conf = *ev.confirmation;
            json.begin_object("confirmation");
            json.value("evidence_windows", conf.evidence_windows);
            json.value("evidence_bits", conf.evidence_bits);
            json.value("confirmed", conf.confirmed);
            nist::write_battery(json, "battery", conf.battery);
            json.end_object();
        }
        json.end_object();
    }
    json.end_array();
}

} // namespace otf::core
