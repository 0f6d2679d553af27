#include "core/supervisor.hpp"

#include "core/telemetry_log.hpp"

#include <chrono>
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
    // The alarm policy shares health_monitor's decision rule; its
    // constructor is the authoritative validity check.
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
}

// ---------------------------------------------------------------------
// Raw event / checkpoint serialization (fixed-width little-endian
// fields in declaration order; strings length-prefixed, doubles as IEEE
// bit patterns).  Shared by the telemetry log and the checkpoint
// payloads, so a replayed event parses back bit-identical.
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
            sink.u32(entry.test_number);
            sink.str(entry.name);
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
            nist::battery_entry entry;
            entry.test_number = cursor.u32();
            entry.name = cursor.str();
            entry.p_value = cursor.f64();
            entry.applicable = cursor.boolean();
            entry.pass = cursor.boolean();
            conf.battery.entries.push_back(std::move(entry));
        }
        ev.confirmation = std::move(conf);
    }
    return ev;
}

std::vector<std::uint8_t> serialize(const supervisor_checkpoint& cp)
{
    base::byte_sink sink;
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
    sink.u32(static_cast<std::uint32_t>(cp.failures_by_test.size()));
    for (const auto& [name, count] : cp.failures_by_test) {
        sink.str(name);
        sink.u64(count);
    }
    sink.u32(static_cast<std::uint32_t>(cp.evidence_ring.size()));
    for (const supervisor_checkpoint::evidence& ev : cp.evidence_ring) {
        sink.u64(ev.index);
        sink.u32(static_cast<std::uint32_t>(ev.words.size()));
        for (const std::uint64_t word : ev.words) {
            sink.u64(word);
        }
    }
    sink.u32(static_cast<std::uint32_t>(cp.events.size()));
    for (const supervision_event& ev : cp.events) {
        serialize_event(sink, ev);
    }
    sink.u64(cp.monitor_windows);
    return sink.take();
}

supervisor_checkpoint parse_checkpoint(const std::uint8_t* data,
                                       std::size_t len)
{
    base::byte_cursor cursor(data, len);
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
    const std::uint32_t tests = cursor.u32();
    for (std::uint32_t i = 0; i < tests; ++i) {
        std::string name = cursor.str();
        cp.failures_by_test[std::move(name)] = cursor.u64();
    }
    const std::uint32_t evidence = cursor.u32();
    cp.evidence_ring.reserve(cursor.reserve_bound(evidence));
    for (std::uint32_t i = 0; i < evidence; ++i) {
        supervisor_checkpoint::evidence ev;
        ev.index = cursor.u64();
        const std::uint32_t nwords = cursor.u32();
        ev.words.reserve(cursor.reserve_bound(nwords));
        for (std::uint32_t w = 0; w < nwords; ++w) {
            ev.words.push_back(cursor.u64());
        }
        cp.evidence_ring.push_back(std::move(ev));
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

supervisor_checkpoint parse_checkpoint(
    const std::vector<std::uint8_t>& bytes)
{
    return parse_checkpoint(bytes.data(), bytes.size());
}

supervision_event& supervisor::push_event(std::uint64_t window,
                                          supervision_event_kind kind)
{
    supervision_event ev;
    ev.sequence = events_.size();
    ev.window_index = window;
    ev.kind = kind;
    ev.dwell = clean_streak_;
    events_.push_back(std::move(ev));
    return events_.back();
}

void supervisor::observe(const window_report& report)
{
    ++windows_;
    bits_ += mon_.config().n();
    if (state_ == supervision_state::escalated) {
        ++windows_escalated_;
    }
    const bool failed = !report.software.all_pass;
    if (failed) {
        ++failures_;
        for (const test_verdict& v : report.software.verdicts) {
            if (!v.pass) {
                ++failures_by_test_[v.name];
            }
        }
    }
    alarm_.record(failed);
    if (alarm_.rose()) {
        push_event(report.window_index,
                   supervision_event_kind::alarm_raised);
        if (state_ == supervision_state::baseline) {
            pending_escalation_ = true;
        }
        if (telemetry_ != nullptr) {
            telemetry_->log_event(events_.back());
        }
    }
    if (state_ == supervision_state::escalated) {
        clean_streak_ = failed ? 0 : clean_streak_ + 1;
    }
}

void supervisor::capture(std::uint64_t window_index,
                         const std::uint64_t* words, std::size_t nwords)
{
    evidence_window ev;
    ev.index = window_index;
    ev.words.assign(words, words + nwords);
    evidence_.push_back(std::move(ev));
    while (evidence_.size() > cfg_.evidence_windows) {
        evidence_.pop_front();
    }
    if (telemetry_ != nullptr) {
        telemetry_->log_window(window_index, words, nwords);
    }
}

void supervisor::at_barrier(std::uint64_t next_window)
{
    if (pending_escalation_ && state_ == supervision_state::baseline) {
        escalate(next_window);
        return;
    }
    pending_escalation_ = false;
    if (state_ == supervision_state::escalated
        && clean_streak_ >= cfg_.dwell_windows) {
        de_escalate(next_window);
    }
}

void supervisor::escalate(std::uint64_t next_window)
{
    pending_escalation_ = false;
    {
        supervision_event& ev =
            push_event(next_window, supervision_event_kind::escalated);
        ev.from_design = cfg_.baseline.name;
        ev.to_design = cfg_.escalated.name;
        if (telemetry_ != nullptr) {
            telemetry_->log_event(ev);
        }
    }
    // The on-the-fly reconfiguration itself: the live block is
    // reprogrammed through the register-map write path between windows.
    mon_.reconfigure(cfg_.escalated, cv_escalated_);
    state_ = supervision_state::escalated;
    clean_streak_ = 0;
    ++escalations_;
    if (!first_escalation_window_) {
        first_escalation_window_ = next_window;
    }

    // Offline confirmation: replay the captured evidence through the
    // composable battery.  Runs on the window loop's thread -- the
    // deployment analogue of the MCU shipping the suspicious stretch to a
    // host.
    confirmation_result conf = confirm_offline();
    if (conf.confirmed) {
        ++confirmed_escalations_;
    }
    supervision_event& ev =
        push_event(next_window, supervision_event_kind::confirmed);
    ev.confirmation = std::move(conf);
    if (telemetry_ != nullptr) {
        telemetry_->log_event(ev);
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
    if (telemetry_ != nullptr) {
        telemetry_->log_event(events_.back());
    }
    supervision_event& ev =
        push_event(next_window, supervision_event_kind::de_escalated);
    ev.from_design = cfg_.escalated.name;
    ev.to_design = cfg_.baseline.name;
    if (telemetry_ != nullptr) {
        telemetry_->log_event(ev);
    }
    mon_.reconfigure(cfg_.baseline, cv_baseline_);
    state_ = supervision_state::baseline;
    clean_streak_ = 0;
    ++de_escalations_;
    if (telemetry_ != nullptr) {
        telemetry_->log_checkpoint(checkpoint());
    }
}

confirmation_result supervisor::confirm_offline() const
{
    confirmation_result conf;
    bit_sequence seq;
    std::size_t total_words = 0;
    for (const evidence_window& ev : evidence_) {
        total_words += ev.words.size();
    }
    seq.reserve(total_words * 64);
    for (const evidence_window& ev : evidence_) {
        for (const std::uint64_t word : ev.words) {
            for (unsigned i = 0; i < 64; ++i) {
                seq.push_back(((word >> i) & 1u) != 0);
            }
        }
        ++conf.evidence_windows;
    }
    conf.evidence_bits = seq.size();
    conf.battery =
        nist::run_battery(seq, cfg_.offline_alpha, cfg_.offline_tests);
    conf.confirmed = conf.battery.failed >= cfg_.offline_min_failures;
    return conf;
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
    rep.windows = windows_;
    rep.failures = failures_;
    rep.bits = bits_;
    rep.escalations = escalations_;
    rep.confirmed_escalations = confirmed_escalations_;
    rep.de_escalations = de_escalations_;
    rep.windows_escalated = windows_escalated_;
    rep.first_escalation_window =
        first_escalation_window_.value_or(windows_);
    rep.alarm = alarm_.alarm();
    rep.final_state = state_;
    rep.failures_by_test = failures_by_test_;
    rep.events = events_;
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
    supervisor_checkpoint cp;
    cp.state = state_;
    cp.pending_escalation = pending_escalation_;
    cp.clean_streak = clean_streak_;
    cp.alarm_history = alarm_.history();
    cp.alarm_sticky = alarm_.alarm();
    cp.windows = windows_;
    cp.failures = failures_;
    cp.bits = bits_;
    cp.windows_escalated = windows_escalated_;
    cp.escalations = escalations_;
    cp.confirmed_escalations = confirmed_escalations_;
    cp.de_escalations = de_escalations_;
    cp.has_first_escalation = first_escalation_window_.has_value();
    cp.first_escalation_window = first_escalation_window_.value_or(0);
    cp.failures_by_test = failures_by_test_;
    cp.evidence_ring.reserve(evidence_.size());
    for (const evidence_window& ev : evidence_) {
        supervisor_checkpoint::evidence e;
        e.index = ev.index;
        e.words = ev.words;
        cp.evidence_ring.push_back(std::move(e));
    }
    cp.events = events_;
    cp.monitor_windows = mon_.windows_tested();
    return cp;
}

void supervisor::restore(const supervisor_checkpoint& cp)
{
    if (windows_ != 0 || !events_.empty()
        || state_ != supervision_state::baseline) {
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
    state_ = cp.state;
    pending_escalation_ = cp.pending_escalation;
    clean_streak_ = cp.clean_streak;
    windows_ = cp.windows;
    failures_ = cp.failures;
    bits_ = cp.bits;
    windows_escalated_ = cp.windows_escalated;
    escalations_ = cp.escalations;
    confirmed_escalations_ = cp.confirmed_escalations;
    de_escalations_ = cp.de_escalations;
    first_escalation_window_.reset();
    if (cp.has_first_escalation) {
        first_escalation_window_ = cp.first_escalation_window;
    }
    failures_by_test_ = cp.failures_by_test;
    evidence_.clear();
    for (const supervisor_checkpoint::evidence& e : cp.evidence_ring) {
        evidence_window ev;
        ev.index = e.index;
        ev.words = e.words;
        evidence_.push_back(std::move(ev));
    }
    events_ = cp.events;
    // Reprogram the block to the checkpointed tier (the restart-time
    // analogue of the live escalation's register-map write path), then
    // continue the global window numbering.
    if (state_ == supervision_state::escalated) {
        mon_.reconfigure(cfg_.escalated, cv_escalated_);
    }
    mon_.restore_window_count(cp.monitor_windows);
}

void supervisor::write_events(json_writer& json,
                              std::string_view key) const
{
    json.begin_array(key);
    for (const supervision_event& ev : events_) {
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
