// Replay bench: durable telemetry + deterministic forensics as one
// measured contract.
//
//   $ ./bench_replay                 # full run
//   $ OTF_SMOKE=1 ./bench_replay     # ctest / verify.sh smoke entry
//   $ ./bench_replay --bench-dir=/tmp
//
// Phase 1 runs a supervised attack (the substitution scenario from the
// adversarial library) with a durable telemetry log attached: every
// evidence window, supervision event and checkpoint is handed to the
// log's writer thread, which appends it to the WAL segment
// (BENCH_replay.wal); the same attack is logged again transitions-only
// (BENCH_replay_events.wal: events and checkpoints, no windows).
// Phase 2 reads both segments back and replays them: the offline
// battery re-run over the logged evidence -- the window records, or the
// escalation checkpoints' rings -- must reproduce the live confirmation
// verdicts bit-identically.  Phase 3 measures the logging overhead on a healthy
// supervised stream against the same run without telemetry.
//
// Results go to BENCH_replay.json (schema "otf-replay/1", see
// docs/BENCHMARKS.md).  Exit status enforces the contract:
//   - the attack escalates and its confirmations replay bit-identical
//     from both segments;
//   - both segments are recovered clean and no record was dropped;
//   - logging overhead on the healthy stream (full runs only; smoke
//     proves the plumbing): <= 10% for transitions-only capture, and
//     full raw-evidence capture -- which necessarily pays the disk
//     bandwidth of the stream itself -- must not halve the throughput.
#include "base/env.hpp"
#include "base/json.hpp"
#include "core/design_config.hpp"
#include "core/scenario.hpp"
#include "core/supervisor.hpp"
#include "core/telemetry_log.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"
#include "what_ran.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

using namespace otf;

namespace {

constexpr std::uint64_t kSeed = 0x5eed0e5ca1a7e000ULL;

double seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

core::supervisor_config make_config()
{
    core::supervisor_config cfg;
    cfg.baseline = core::paper_design(16, core::tier::light);
    cfg.baseline.double_buffered = true;
    cfg.escalated = core::paper_design(16, core::tier::high);
    cfg.escalated.double_buffered = true;
    cfg.alpha = 0.001;
    cfg.fail_threshold = 3;
    cfg.policy_window = 8;
    cfg.evidence_windows = smoke_scaled<std::size_t>(8, 4);
    cfg.dwell_windows = 12;
    cfg.offline_alpha = 0.01;
    cfg.offline_min_failures = 2;
    return cfg;
}

/// One supervised run of the substitution attack with (or without) a
/// telemetry log attached.
core::supervision_report run_attack(const core::supervisor_config& cfg,
                                    const core::critical_values& cv_base,
                                    const core::critical_values& cv_esc,
                                    std::uint64_t windows,
                                    std::uint64_t onset,
                                    core::telemetry_log* log)
{
    std::vector<core::scenario> scenarios =
        core::standard_scenarios(onset, smoke_scaled<std::uint64_t>(8, 4));
    std::erase_if(scenarios, [](const core::scenario& sc) {
        return sc.name != "substitution";
    });
    if (scenarios.empty()) {
        throw std::runtime_error(
            "bench_replay: no substitution scenario in the library");
    }
    const core::scenario& sc = scenarios.front();

    std::unique_ptr<trng::entropy_source> source =
        std::make_unique<trng::ideal_source>(kSeed);
    auto stacked = sc.make_model(std::move(source), kSeed ^ 0xa77ac4);
    trng::source_model* model = stacked.get();

    core::supervisor sup(cfg, cv_base, cv_esc);
    if (log != nullptr) {
        sup.attach_telemetry(log);
    }
    const core::severity_schedule schedule = sc.schedule;
    return sup.run(*stacked, windows, [model, schedule](std::uint64_t w) {
        model->set_severity(schedule.severity_at(w));
    });
}

/// Healthy supervised run, for the overhead phase.
double healthy_mbps(const core::supervisor_config& cfg,
                    const core::critical_values& cv_base,
                    const core::critical_values& cv_esc,
                    std::uint64_t windows, core::telemetry_log* log)
{
    core::supervisor sup(cfg, cv_base, cv_esc);
    if (log != nullptr) {
        sup.attach_telemetry(log);
    }
    trng::ideal_source src(2026);
    const auto t0 = std::chrono::steady_clock::now();
    sup.run(src, windows);
    const double s = seconds_since(t0);
    return static_cast<double>(windows * cfg.baseline.n()) / s / 1e6;
}

/// Best-of-reps logged throughput at one capture policy.
double logged_mbps_best(const core::supervisor_config& cfg,
                        const core::critical_values& cv_base,
                        const core::critical_values& cv_esc,
                        std::uint64_t windows, unsigned reps,
                        const std::string& path, bool log_windows)
{
    double best = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        core::telemetry_config tcfg;
        tcfg.path = path;
        tcfg.log_windows = log_windows;
        core::telemetry_log log(tcfg);
        best = std::max(best, healthy_mbps(cfg, cv_base, cv_esc,
                                           windows, &log));
        log.close();
    }
    return best;
}

} // namespace

int main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (!parse_bench_dir_flag(argv[i])) {
            std::fprintf(stderr, "usage: %s [--bench-dir=<dir>]\n",
                         argv[0]);
            return 2;
        }
    }

    const core::supervisor_config cfg = make_config();
    const core::critical_values cv_base =
        core::compute_critical_values(cfg.baseline, cfg.alpha);
    const core::critical_values cv_esc =
        core::compute_critical_values(cfg.escalated, cfg.alpha);
    const std::uint64_t windows = smoke_scaled<std::uint64_t>(48, 20);
    const std::uint64_t onset = smoke_scaled<std::uint64_t>(8, 4);

    std::printf("replay bench: %s -> %s, %llu windows, onset %llu\n",
                cfg.baseline.name.c_str(), cfg.escalated.name.c_str(),
                static_cast<unsigned long long>(windows),
                static_cast<unsigned long long>(onset));

    // -- phase 1: logged attack run ------------------------------------
    const std::string wal_path = bench_output_path("BENCH_replay.wal");
    std::uint64_t log_bytes = 0;
    std::uint64_t log_records = 0;
    std::uint64_t log_dropped = 0;
    double log_seconds = 0.0;
    core::supervision_report live;
    {
        core::telemetry_config tcfg;
        tcfg.path = wal_path;
        core::telemetry_log log(tcfg);
        const auto t0 = std::chrono::steady_clock::now();
        live = run_attack(cfg, cv_base, cv_esc, windows, onset, &log);
        log_seconds = seconds_since(t0);
        log.close();
        log_bytes = log.bytes_written();
        log_records = log.records_logged();
        log_dropped = log.records_dropped();
    }
    // The same attack, transitions-only: its confirmations can only
    // replay from the rings the escalation checkpoints carry.
    const std::string events_path =
        bench_output_path("BENCH_replay_events.wal");
    std::uint64_t events_dropped = 0;
    {
        core::telemetry_config tcfg;
        tcfg.path = events_path;
        tcfg.log_windows = false;
        core::telemetry_log log(tcfg);
        run_attack(cfg, cv_base, cv_esc, windows, onset, &log);
        log.close();
        events_dropped = log.records_dropped();
    }
    std::printf("  logged run: %u escalation(s), %llu records, "
                "%llu bytes, %llu dropped (%.2fs)\n",
                live.escalations,
                static_cast<unsigned long long>(log_records),
                static_cast<unsigned long long>(log_bytes),
                static_cast<unsigned long long>(log_dropped),
                log_seconds);

    // -- phase 2: recover + deterministic replay -----------------------
    const auto t1 = std::chrono::steady_clock::now();
    const core::telemetry_run run = core::read_telemetry(wal_path);
    const core::replay_report replay = core::verify_replay(run);
    const double replay_seconds = seconds_since(t1);
    unsigned matched = 0;
    for (const core::replay_confirmation& rc : replay.confirmations) {
        if (rc.match) {
            ++matched;
        }
    }
    std::printf("  replay: %llu windows, %llu events, %zu confirmations "
                "(%u bit-identical), checkpoints %s (%.2fs)\n",
                static_cast<unsigned long long>(replay.windows_replayed),
                static_cast<unsigned long long>(replay.events_replayed),
                replay.confirmations.size(), matched,
                replay.checkpoints_consistent ? "consistent"
                                              : "INCONSISTENT",
                replay_seconds);
    const core::telemetry_run events_run = core::read_telemetry(events_path);
    const core::replay_report events_replay = core::verify_replay(events_run);
    std::printf("  transitions-only replay: %llu checkpoints, %zu "
                "confirmations, %s\n",
                static_cast<unsigned long long>(
                    events_replay.checkpoints_checked),
                events_replay.confirmations.size(),
                events_replay.verified ? "verified" : "NOT VERIFIED");

    // -- phase 3: logging overhead on a healthy stream -----------------
    // Two capture policies: transitions-only (events + checkpoints; the
    // per-window hot path logs nothing) must be essentially free, and
    // full capture (every raw evidence window) pays the disk bandwidth
    // of the stream itself -- bounded, but honestly bounded.
    const std::uint64_t overhead_windows =
        smoke_scaled<std::uint64_t>(96, 8);
    const unsigned reps = smoke_scaled(5u, 1u);
    const std::string overhead_path =
        bench_output_path("BENCH_replay_overhead.wal");
    double plain_mbps = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        plain_mbps = std::max(
            plain_mbps, healthy_mbps(cfg, cv_base, cv_esc,
                                     overhead_windows, nullptr));
    }
    const double events_mbps =
        logged_mbps_best(cfg, cv_base, cv_esc, overhead_windows, reps,
                         overhead_path, false);
    const double full_mbps =
        logged_mbps_best(cfg, cv_base, cv_esc, overhead_windows, reps,
                         overhead_path, true);
    std::remove(overhead_path.c_str());
    const double events_overhead =
        events_mbps > 0.0 ? plain_mbps / events_mbps - 1.0 : 0.0;
    const double full_overhead =
        full_mbps > 0.0 ? plain_mbps / full_mbps - 1.0 : 0.0;
    const bool enforce_overhead = !smoke_mode();
    std::printf("  healthy stream: %.1f Mbit/s plain, %.1f Mbit/s "
                "events-only (%.1f%%), %.1f Mbit/s full capture "
                "(%.1f%%)%s\n",
                plain_mbps, events_mbps, 100.0 * events_overhead,
                full_mbps, 100.0 * full_overhead,
                enforce_overhead ? "" : " (smoke: not enforced)");

    // -- contract ------------------------------------------------------
    const bool attack_ok = live.escalations > 0
        && live.confirmed_escalations == live.escalations;
    const bool log_ok = run.header_ok && run.clean && log_dropped == 0
        && events_run.header_ok && events_run.clean && events_dropped == 0;
    const bool replay_ok = replay.verified
        && replay.confirmations.size() == live.escalations
        && matched == replay.confirmations.size() && events_replay.verified
        && events_replay.confirmations.size() == live.escalations;
    const bool overhead_ok = !enforce_overhead
        || (events_overhead <= 0.10 && full_overhead <= 1.00);
    const bool ok = attack_ok && log_ok && replay_ok && overhead_ok;

    json_writer json;
    json.begin_object();
    json.value("schema", "otf-replay/1");
    write_what_ran(json);
    json.value("smoke", smoke_mode());
    json.value("baseline", cfg.baseline.name);
    json.value("escalated", cfg.escalated.name);
    json.value("windows", windows);
    json.value("onset_window", onset);
    json.value("seed", kSeed);
    json.begin_object("log");
    json.value("path", wal_path);
    json.value("bytes", log_bytes);
    json.value("records", log_records);
    json.value("dropped", log_dropped);
    json.value("clean", run.clean);
    json.value("evidence_windows",
               static_cast<std::uint64_t>(run.windows.size()));
    json.value("events", static_cast<std::uint64_t>(run.events.size()));
    json.value("checkpoints",
               static_cast<std::uint64_t>(run.checkpoints.size()));
    json.value("seconds", log_seconds);
    json.end_object();
    json.begin_object("replay");
    json.value("windows_replayed", replay.windows_replayed);
    json.value("events_replayed", replay.events_replayed);
    json.value("confirmations",
               static_cast<std::uint64_t>(replay.confirmations.size()));
    json.value("bit_identical", matched);
    json.value("checkpoints_consistent", replay.checkpoints_consistent);
    json.value("verified", replay.verified);
    json.value("seconds", replay_seconds);
    json.end_object();
    json.begin_object("overhead");
    json.value("windows", overhead_windows);
    json.value("plain_mbps", plain_mbps);
    json.value("events_only_mbps", events_mbps);
    json.value("events_only_overhead_fraction", events_overhead);
    json.value("full_capture_mbps", full_mbps);
    json.value("full_capture_overhead_fraction", full_overhead);
    json.value("enforced", enforce_overhead);
    json.end_object();
    json.value("contract_ok", ok);
    json.end_object();

    const std::string json_path = bench_output_path("BENCH_replay.json");
    if (!write_bench_json(json_path, json)) {
        return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());

    if (!ok) {
        std::printf("CONTRACT FAILED: the attack went un-escalated, a "
                    "record was dropped or torn, a confirmation did not "
                    "replay bit-identical, or the logging overhead "
                    "exceeded its bar (10%% events-only; full capture "
                    "must not halve throughput)\n");
        return 1;
    }
    return 0;
}
