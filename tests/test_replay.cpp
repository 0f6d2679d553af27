// Deterministic replay of supervised runs from the durable telemetry
// log (core/telemetry_log.hpp).
//
// For every scenario in the adversarial library the supervised run is
// executed with a telemetry log attached, the segment is read back, and
// the replay pass must reproduce the live run exactly: the event
// timeline verbatim (dwell counters and all) and every offline
// confirmation bit-identical in its P-values.  Both capture policies
// are exercised -- full raw-evidence capture and transitions-only --
// and the valid-prefix story is carried through the typed layer:
// truncating a real segment yields a replayable prefix, and a frame
// with an unknown type byte is skipped, not fatal.  A full disk under a
// supervised run is counted and reported by close(), never a crash.
#include "core/telemetry_log.hpp"

#include "core/design_config.hpp"
#include "core/scenario.hpp"
#include "core/supervisor.hpp"
#include "support/dev_full.hpp"
#include "support/fixed_seed.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace otf;

constexpr std::uint64_t kWindows = 64;
constexpr std::uint64_t kOnset = 8;
constexpr std::uint64_t kRamp = 8;

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
    cfg.evidence_windows = 4;
    cfg.dwell_windows = 12;
    cfg.offline_alpha = 0.01;
    cfg.offline_min_failures = 2;
    return cfg;
}

/// One supervised run of `sc` with an optional telemetry log attached.
core::supervision_report run_scenario(const core::scenario& sc,
                                      const core::supervisor_config& cfg,
                                      const core::critical_values& cv_base,
                                      const core::critical_values& cv_esc,
                                      core::telemetry_log* log)
{
    std::unique_ptr<trng::entropy_source> source =
        std::make_unique<trng::ideal_source>(otf::test::kCanonicalSeed);

    core::supervisor sup(cfg, cv_base, cv_esc);
    if (log != nullptr) {
        sup.attach_telemetry(log);
    }
    if (sc.make_model) {
        auto stacked =
            sc.make_model(std::move(source), otf::test::fixture_seed(11));
        trng::source_model* model = stacked.get();
        const core::severity_schedule schedule = sc.schedule;
        return sup.run(*stacked, kWindows,
                       [model, schedule](std::uint64_t window) {
                           model->set_severity(schedule.severity_at(window));
                       });
    }
    return sup.run(*source, kWindows);
}

std::string temp_log(const std::string& tag)
{
    return "replay_test_" + tag + ".wal";
}

/// Live run + read-back + replay for one scenario and capture policy;
/// returns the recovered run for extra assertions.
core::telemetry_run check_scenario(const core::scenario& sc,
                                   bool log_windows)
{
    const core::supervisor_config cfg = make_config();
    const core::critical_values cv_base =
        core::compute_critical_values(cfg.baseline, cfg.alpha);
    const core::critical_values cv_esc =
        core::compute_critical_values(cfg.escalated, cfg.alpha);

    const std::string path =
        temp_log(sc.name + (log_windows ? "_full" : "_events"));
    core::supervision_report live;
    std::uint64_t dropped = 0;
    {
        core::telemetry_config tcfg;
        tcfg.path = path;
        tcfg.log_windows = log_windows;
        core::telemetry_log log(tcfg);
        live = run_scenario(sc, cfg, cv_base, cv_esc, &log);
        log.close();
        dropped = log.records_dropped();
    }
    EXPECT_EQ(dropped, 0u) << sc.name;

    const core::telemetry_run run = core::read_telemetry(path);
    std::remove(path.c_str());

    EXPECT_TRUE(run.header_ok) << sc.name;
    EXPECT_EQ(run.schema, core::telemetry_schema) << sc.name;
    EXPECT_TRUE(run.clean) << sc.name;
    EXPECT_TRUE(run.has_config) << sc.name;
    if (!run.has_config) {
        return run;
    }
    EXPECT_EQ(run.windows_logged, log_windows) << sc.name;

    // The logged timeline IS the live timeline -- sequence numbers,
    // dwell counters, design labels and battery P-values verbatim.
    EXPECT_EQ(run.events.size(), live.events.size()) << sc.name;
    for (std::size_t i = 0;
         i < std::min(run.events.size(), live.events.size()); ++i) {
        EXPECT_EQ(run.events[i], live.events[i])
            << sc.name << ", event " << i;
    }
    if (log_windows) {
        EXPECT_EQ(run.windows.size(), live.windows) << sc.name;
    } else {
        EXPECT_TRUE(run.windows.empty()) << sc.name;
    }

    // Deterministic replay: bit-identical confirmations.
    const core::replay_report rep = core::verify_replay(run);
    EXPECT_TRUE(rep.verified) << sc.name;
    EXPECT_TRUE(rep.checkpoints_consistent) << sc.name;
    EXPECT_TRUE(rep.ring_consistent) << sc.name;
    EXPECT_EQ(rep.events_replayed, live.events.size()) << sc.name;
    // One replayed verdict per escalation (confirmed or not).
    EXPECT_EQ(rep.confirmations.size(), live.escalations) << sc.name;
    for (const core::replay_confirmation& conf : rep.confirmations) {
        EXPECT_TRUE(conf.match) << sc.name << ", window " << conf.window;
        EXPECT_EQ(conf.live, conf.replayed) << sc.name;
    }
    return run;
}

TEST(Replay, EveryScenarioBitIdenticalFullCapture)
{
    unsigned escalated = 0;
    unsigned confirmed = 0;
    for (const core::scenario& sc : core::standard_scenarios(kOnset, kRamp)) {
        const core::telemetry_run run = check_scenario(sc, true);
        for (const core::supervision_event& ev : run.events) {
            if (ev.kind == core::supervision_event_kind::escalated) {
                ++escalated;
            }
            if (ev.kind == core::supervision_event_kind::confirmed
                && ev.confirmation && ev.confirmation->confirmed) {
                ++confirmed;
            }
        }
        if (!sc.expect_alarm) {
            // The null scenario must leave a quiet log: no events, just
            // the config (and the captured windows).
            EXPECT_TRUE(run.events.empty()) << sc.name;
            EXPECT_TRUE(run.checkpoints.empty()) << sc.name;
        }
    }
    // The library's attacks must actually exercise the escalation path,
    // otherwise the bit-identical claim above is vacuous.
    EXPECT_GE(escalated, 3u);
    EXPECT_GE(confirmed, 1u);
}

TEST(Replay, TransitionsOnlyCaptureStaysBitIdentical)
{
    // Without window records the replay draws its evidence from the
    // escalation checkpoints; verdicts must still be bit-identical.
    unsigned confirmations = 0;
    for (const core::scenario& sc : core::standard_scenarios(kOnset, kRamp)) {
        if (!sc.expect_alarm) {
            continue;
        }
        const core::telemetry_run run = check_scenario(sc, false);
        for (const core::supervision_event& ev : run.events) {
            confirmations +=
                ev.kind == core::supervision_event_kind::confirmed;
        }
    }
    EXPECT_GE(confirmations, 1u);
}

// ---------------------------------------------------------------------
// Valid-prefix behaviour through the typed layer.
// ---------------------------------------------------------------------

/// A real segment image from a supervised run of the first attack.
std::vector<std::uint8_t> attack_segment_image(bool log_windows)
{
    const core::supervisor_config cfg = make_config();
    const core::critical_values cv_base =
        core::compute_critical_values(cfg.baseline, cfg.alpha);
    const core::critical_values cv_esc =
        core::compute_critical_values(cfg.escalated, cfg.alpha);
    std::vector<core::scenario> scenarios =
        core::standard_scenarios(kOnset, kRamp);
    std::erase_if(scenarios, [](const core::scenario& sc) {
        return !sc.expect_alarm;
    });
    const std::string path = temp_log("prefix");
    {
        core::telemetry_config tcfg;
        tcfg.path = path;
        tcfg.log_windows = log_windows;
        core::telemetry_log log(tcfg);
        run_scenario(scenarios.front(), cfg, cv_base, cv_esc, &log);
    }
    std::vector<std::uint8_t> image;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::uint8_t chunk[4096];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
        image.insert(image.end(), chunk, chunk + got);
    }
    std::fclose(f);
    std::remove(path.c_str());
    return image;
}

TEST(Replay, TruncatedSegmentYieldsReplayablePrefix)
{
    const std::vector<std::uint8_t> image = attack_segment_image(true);
    const core::telemetry_run whole =
        core::parse_telemetry(base::wal_recover(image));
    ASSERT_TRUE(whole.has_config);
    ASSERT_FALSE(whole.order.empty());

    // Chop the image at a sweep of cut points (every 97 bytes keeps the
    // sweep dense but affordable on a multi-megabyte segment).  Every
    // cut must recover a typed prefix without throwing, and the records
    // must be verbatim prefixes of the whole run's.
    for (std::size_t cut = 0; cut <= image.size();
         cut += 97, cut = std::min(cut, image.size())) {
        const core::telemetry_run part =
            core::parse_telemetry(base::wal_recover(image.data(), cut));
        ASSERT_LE(part.order.size(), whole.order.size());
        ASSERT_LE(part.windows.size(), whole.windows.size());
        ASSERT_LE(part.events.size(), whole.events.size());
        for (std::size_t i = 0; i < part.windows.size(); ++i) {
            ASSERT_EQ(part.windows[i], whole.windows[i]) << "cut " << cut;
        }
        for (std::size_t i = 0; i < part.events.size(); ++i) {
            ASSERT_EQ(part.events[i], whole.events[i]) << "cut " << cut;
        }
        if (cut == image.size()) {
            EXPECT_EQ(part.order.size(), whole.order.size());
            break;
        }
    }
}

TEST(Replay, UnknownRecordKindIsSkipped)
{
    // A frame with a type byte from a future schema must be counted and
    // skipped -- the rest of the segment still replays.
    std::vector<std::uint8_t> image = attack_segment_image(false);

    // Append a CRC-valid frame with an unknown type (200).
    const std::uint8_t type = 200;
    const std::uint8_t payload[] = {1, 2, 3, 4};
    const std::uint32_t len = sizeof payload;
    std::uint32_t crc = base::crc32c(&type, 1);
    crc = base::crc32c(payload, len, crc);
    for (unsigned i = 0; i < 4; ++i) {
        image.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    }
    for (unsigned i = 0; i < 4; ++i) {
        image.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    }
    image.push_back(type);
    image.insert(image.end(), payload, payload + len);

    const base::wal_read_result wal = base::wal_recover(image);
    EXPECT_TRUE(wal.clean);
    const core::telemetry_run run = core::parse_telemetry(wal);
    EXPECT_EQ(run.unknown_records, 1u);
    ASSERT_TRUE(run.has_config);
    const core::replay_report rep = core::verify_replay(run);
    EXPECT_TRUE(rep.verified);
}

// ---------------------------------------------------------------------
// A full disk under a supervised run.
// ---------------------------------------------------------------------

/// One supervised run of the null scenario logging to /dev/full.
core::supervision_report run_to_full_disk(core::telemetry_log& log)
{
    const core::supervisor_config cfg = make_config();
    std::vector<core::scenario> scenarios =
        core::standard_scenarios(kOnset, kRamp);
    std::erase_if(scenarios, [](const core::scenario& sc) {
        return sc.expect_alarm;
    });
    return run_scenario(scenarios.front(), cfg,
                        core::compute_critical_values(cfg.baseline,
                                                      cfg.alpha),
                        core::compute_critical_values(cfg.escalated,
                                                      cfg.alpha),
                        &log);
}

TEST(Replay, WriteErrorIsCountedAndRethrownByClose)
{
    if (!test::dev_full_available()) {
        GTEST_SKIP() << test::kDevFull << " is not available";
    }
    // Full capture of 64 n = 2^16 windows is ~0.5 MB: far more than the
    // stdio buffer, so appends fail on the writer thread mid-run.
    core::telemetry_config tcfg;
    tcfg.path = test::kDevFull;
    core::telemetry_log log(tcfg);
    const core::supervision_report live = run_to_full_disk(log);
    EXPECT_EQ(live.windows, kWindows);
    const std::string err = test::runtime_error_of([&] { log.close(); });
    EXPECT_NE(err.find(test::kDevFull), std::string::npos) << err;
    EXPECT_GT(log.records_dropped(), 0u);
    EXPECT_LE(log.records_dropped(), log.records_logged());
    // Reported once: the destructor's close() stays quiet.
    EXPECT_NO_THROW(log.close());
}

TEST(Replay, FailedFlushIsReportedNotSilent)
{
    if (!test::dev_full_available()) {
        GTEST_SKIP() << test::kDevFull << " is not available";
    }
    // Transitions-only capture of a quiet run is one small record: it
    // never leaves the stdio buffer until the final flush, which fails.
    core::telemetry_config tcfg;
    tcfg.path = test::kDevFull;
    tcfg.log_windows = false;
    core::telemetry_log log(tcfg);
    run_to_full_disk(log);
    const std::string err = test::runtime_error_of([&] { log.close(); });
    EXPECT_NE(err.find(test::kDevFull), std::string::npos) << err;
}

TEST(Replay, DestructorSwallowsAWriteError)
{
    if (!test::dev_full_available()) {
        GTEST_SKIP() << test::kDevFull << " is not available";
    }
    // No close(): the implicit one in the destructor must not throw.
    core::telemetry_config tcfg;
    tcfg.path = test::kDevFull;
    core::telemetry_log log(tcfg);
    run_to_full_disk(log);
}

TEST(Replay, MissingConfigIsAnError)
{
    // A segment with no run_config record cannot parameterize the
    // battery; verify_replay must refuse rather than guess.
    core::telemetry_run run;
    run.header_ok = true;
    run.schema = core::telemetry_schema;
    run.clean = true;
    EXPECT_THROW(core::verify_replay(run), std::invalid_argument);
}

} // namespace
