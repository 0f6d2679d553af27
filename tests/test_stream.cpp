// Tests of the streaming ingestion core (core/stream.hpp): pipeline
// verdicts register-exact with the batch loops across every paper design
// and both ingestion lanes, monitor::run_stream continuous mode, the
// producer's word-granular hook (scenario severity stepping), open-ended
// and fixed-length end-of-stream behaviour, early sink stop, and the
// stream telemetry snapshot.
#include "base/ring_buffer.hpp"
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "core/scenario.hpp"
#include "core/stream.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"

#include "support/fixed_seed.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace otf;
using test::fixture_seed;

void expect_same_report(const core::window_report& a,
                        const core::window_report& b,
                        const std::string& context)
{
    EXPECT_EQ(a.window_index, b.window_index) << context;
    EXPECT_EQ(a.software.all_pass, b.software.all_pass) << context;
    ASSERT_EQ(a.software.verdicts.size(), b.software.verdicts.size())
        << context;
    for (std::size_t i = 0; i < a.software.verdicts.size(); ++i) {
        EXPECT_EQ(a.software.verdicts[i].name,
                  b.software.verdicts[i].name)
            << context;
        EXPECT_EQ(a.software.verdicts[i].pass,
                  b.software.verdicts[i].pass)
            << context << ": " << a.software.verdicts[i].name;
        EXPECT_EQ(a.software.verdicts[i].statistic,
                  b.software.verdicts[i].statistic)
            << context << ": " << a.software.verdicts[i].name;
        EXPECT_EQ(a.software.verdicts[i].bound,
                  b.software.verdicts[i].bound)
            << context << ": " << a.software.verdicts[i].name;
    }
    EXPECT_EQ(a.sw_cycles, b.sw_cycles) << context;
    EXPECT_EQ(a.generation_cycles, b.generation_cycles) << context;
}

/// Run `windows` through the streaming pipeline and return the reports.
std::vector<core::window_report> streamed_windows(
    const hw::block_config& cfg, std::uint64_t seed,
    std::uint64_t windows, core::ingest_lane lane)
{
    core::monitor mon(cfg, 0.01);
    trng::ideal_source src(seed);
    const std::size_t nwords = static_cast<std::size_t>(cfg.n() / 64);
    base::ring_buffer ring(2 * nwords);
    core::producer_options opts;
    opts.total_words = windows * nwords;
    core::word_producer producer(src, ring, opts);
    core::window_pump pump(ring, mon, lane);
    std::vector<core::window_report> reports;
    core::run_pipeline(producer, pump,
                       [&](const core::window_report& wr) {
                           reports.push_back(wr);
                           return true;
                       },
                       windows);
    return reports;
}

// ---------------------------------------------------------------------------
// Pipeline verdicts are register-exact with the batch loops: all eight
// paper designs, both ingestion lanes (the acceptance oracle).
// ---------------------------------------------------------------------------

TEST(stream, pipeline_matches_batch_span_lane_all_designs)
{
    for (const hw::block_config& cfg : core::all_paper_designs()) {
        const std::uint64_t windows = cfg.n() > 100000 ? 2 : 3;
        core::monitor batch(cfg, 0.01);
        trng::ideal_source batch_src(fixture_seed(21));
        const auto streamed = streamed_windows(
            cfg, fixture_seed(21), windows, core::ingest_lane::span);
        ASSERT_EQ(streamed.size(), windows) << cfg.name;
        for (std::uint64_t w = 0; w < windows; ++w) {
            const auto ref = batch.test_window_words(batch_src);
            expect_same_report(ref, streamed[w],
                               cfg.name + " window "
                                   + std::to_string(w));
        }
    }
}

TEST(stream, pipeline_matches_batch_per_bit_lane_all_designs)
{
    for (const hw::block_config& cfg : core::all_paper_designs()) {
        const std::uint64_t windows = 2;
        core::monitor batch(cfg, 0.01);
        trng::ideal_source batch_src(fixture_seed(22));
        const auto streamed = streamed_windows(
            cfg, fixture_seed(22), windows, core::ingest_lane::per_bit);
        ASSERT_EQ(streamed.size(), windows) << cfg.name;
        for (std::uint64_t w = 0; w < windows; ++w) {
            const auto ref = batch.test_window(batch_src);
            expect_same_report(ref, streamed[w],
                               cfg.name + " window "
                                   + std::to_string(w));
        }
    }
}

// ---------------------------------------------------------------------------
// monitor::run_stream -- the continuous mode.
// ---------------------------------------------------------------------------

TEST(stream, run_stream_drains_a_prefilled_ring_single_threaded)
{
    // A ring that was filled and closed before the pump starts is the
    // single-threaded degenerate pipeline: run_stream must drain it
    // completely without any producer thread.
    const hw::block_config cfg =
        core::paper_design(7, core::tier::light);
    const std::size_t nwords = static_cast<std::size_t>(cfg.n() / 64);
    const std::uint64_t windows = 5;

    trng::ideal_source src(fixture_seed(23));
    const auto words = src.generate_words(windows * nwords);
    base::ring_buffer ring(words.size());
    ASSERT_EQ(ring.try_push(words.data(), words.size()), words.size());
    ring.close();

    core::monitor mon(cfg, 0.01);
    core::monitor batch(cfg, 0.01);
    trng::ideal_source batch_src(fixture_seed(23));
    std::uint64_t seen = 0;
    const std::uint64_t done = mon.run_stream(
        ring,
        [&](const core::window_report& wr) {
            expect_same_report(batch.test_window_words(batch_src), wr,
                               "window " + std::to_string(seen));
            ++seen;
            return true;
        });
    EXPECT_EQ(done, windows);
    EXPECT_EQ(seen, windows);
    EXPECT_TRUE(ring.drained());
}

TEST(stream, run_stream_open_ended_stops_via_sink)
{
    // Open-ended supervision: no window count anywhere -- the producer
    // streams forever and the *sink* ends the run (here: after an alarm
    // fires), the platform's continuous-monitoring deployment shape.
    const hw::block_config cfg =
        core::paper_design(7, core::tier::light);
    const std::size_t nwords = static_cast<std::size_t>(cfg.n() / 64);
    core::monitor mon(cfg, 0.01);
    core::windowed_alarm alarm(2, 8);
    trng::stuck_source src(true); // fails every window
    base::ring_buffer ring(2 * nwords);
    core::word_producer producer(src, ring, {}); // total_words = 0
    core::window_pump pump(ring, mon);
    const std::uint64_t done = core::run_pipeline(
        producer, pump,
        [&](const core::window_report& wr) {
            return !alarm.record(!wr.software.all_pass);
        });
    EXPECT_TRUE(alarm.alarm());
    EXPECT_EQ(done, 2u); // second failed window trips the 2-of-8 policy
    EXPECT_EQ(mon.windows_tested(), 2u);
}

// ---------------------------------------------------------------------------
// Producer hook: the scenario severity path, advanced at word
// granularity yet bit-exact with per-window stepping.
// ---------------------------------------------------------------------------

TEST(stream, producer_hook_fires_at_stride_boundaries)
{
    const hw::block_config cfg =
        core::paper_design(7, core::tier::light);
    const std::size_t nwords = static_cast<std::size_t>(cfg.n() / 64);
    const std::uint64_t windows = 4;

    trng::ideal_source src(fixture_seed(24));
    base::ring_buffer ring(windows * nwords);
    core::producer_options opts;
    opts.total_words = windows * nwords;
    opts.batch_words = 3; // ragged: batches would cross boundaries
    opts.hook_stride_words = nwords;
    std::vector<std::uint64_t> hook_words;
    opts.word_hook = [&](std::uint64_t word) {
        hook_words.push_back(word);
    };
    core::word_producer producer(src, ring, opts);
    producer.run();
    producer.rethrow_if_failed();

    ASSERT_EQ(hook_words.size(), windows);
    for (std::uint64_t w = 0; w < windows; ++w) {
        EXPECT_EQ(hook_words[w], w * nwords)
            << "hook must land exactly on the window-boundary word";
    }
}

TEST(stream, streamed_severity_schedule_is_bit_exact_with_batch)
{
    // Reference: the pre-pipeline scenario trial loop -- set severity per
    // window, then generate-and-test that window.  Streamed: the
    // schedule rides the producer's word hook.  Verdicts must match
    // exactly, window by window.
    const hw::block_config cfg =
        core::custom_design(12, hw::test_set{}
                                    .with(hw::test_id::frequency)
                                    .with(hw::test_id::block_frequency)
                                    .with(hw::test_id::runs)
                                    .with(hw::test_id::longest_run)
                                    .with(hw::test_id::cumulative_sums));
    const std::size_t nwords = static_cast<std::size_t>(cfg.n() / 64);
    const std::uint64_t windows = 12;
    core::severity_schedule schedule{
        core::severity_schedule::shape::ramp, 1.0, 4, 6, 0};

    // Batch reference.
    core::monitor batch(cfg, 0.01);
    trng::rtn_source batch_model(
        std::make_unique<trng::ideal_source>(fixture_seed(25)),
        fixture_seed(26));
    std::vector<core::window_report> ref;
    for (std::uint64_t w = 0; w < windows; ++w) {
        batch_model.set_severity(schedule.severity_at(w));
        ref.push_back(batch.test_window_words(batch_model));
    }

    // Streamed with the word hook.
    core::monitor mon(cfg, 0.01);
    trng::rtn_source model(
        std::make_unique<trng::ideal_source>(fixture_seed(25)),
        fixture_seed(26));
    base::ring_buffer ring(2 * nwords);
    core::producer_options opts;
    opts.total_words = windows * nwords;
    opts.hook_stride_words = nwords;
    opts.word_hook = [&](std::uint64_t word) {
        model.set_severity(schedule.severity_at(word / nwords));
    };
    core::word_producer producer(model, ring, opts);
    core::window_pump pump(ring, mon);
    std::vector<core::window_report> streamed;
    core::run_pipeline(producer, pump,
                       [&](const core::window_report& wr) {
                           streamed.push_back(wr);
                           return true;
                       },
                       windows);

    ASSERT_EQ(streamed.size(), ref.size());
    for (std::uint64_t w = 0; w < windows; ++w) {
        expect_same_report(ref[w], streamed[w],
                           "window " + std::to_string(w));
    }
}

// ---------------------------------------------------------------------------
// End-of-stream behaviour.
// ---------------------------------------------------------------------------

TEST(stream, open_ended_replay_closes_gracefully_with_leftover)
{
    // A finite trace in open-ended mode is not an error: the producer
    // closes after the last full word and the pump counts the partial
    // trailing window as leftover.
    const hw::block_config cfg =
        core::paper_design(7, core::tier::light);
    const std::size_t nwords = static_cast<std::size_t>(cfg.n() / 64);
    const std::uint64_t full_windows = 3;
    // 3 windows + 1 stray word + 7 stray bits.
    trng::ideal_source gen(fixture_seed(27));
    trng::replay_source src(
        gen.generate(full_windows * cfg.n() + 64 + 7));

    core::monitor mon(cfg, 0.01);
    base::ring_buffer ring(2 * nwords);
    core::word_producer producer(src, ring, {}); // open-ended
    core::window_pump pump(ring, mon);
    const std::uint64_t done =
        core::run_pipeline(producer, pump, nullptr);
    EXPECT_EQ(done, full_windows);
    EXPECT_EQ(pump.leftover_words(), 1u);
    EXPECT_EQ(producer.words_produced(), full_windows * nwords + 1);
    EXPECT_FALSE(producer.failed());
}

TEST(stream, fixed_total_throws_when_the_source_runs_dry)
{
    const hw::block_config cfg =
        core::paper_design(7, core::tier::light);
    const std::size_t nwords = static_cast<std::size_t>(cfg.n() / 64);
    trng::ideal_source gen(fixture_seed(28));
    trng::replay_source src(gen.generate(cfg.n())); // one window only

    core::monitor mon(cfg, 0.01);
    base::ring_buffer ring(2 * nwords);
    core::producer_options opts;
    opts.total_words = 3 * nwords; // asks for three
    core::word_producer producer(src, ring, opts);
    core::window_pump pump(ring, mon);
    try {
        core::run_pipeline(producer, pump, nullptr, 3);
        FAIL() << "expected the dry source to surface as an error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("replay"), std::string::npos) << what;
        EXPECT_NE(what.find("ran dry"), std::string::npos) << what;
    }
    // The windows that were fully buffered before the starvation were
    // still analysed -- data already generated is never thrown away.
    EXPECT_EQ(mon.windows_tested(), 1u);
}

TEST(stream, telemetry_snapshot_counts_the_words)
{
    const hw::block_config cfg =
        core::paper_design(7, core::tier::light);
    const std::size_t nwords = static_cast<std::size_t>(cfg.n() / 64);
    const std::uint64_t windows = 6;
    core::monitor mon(cfg, 0.01);
    trng::ideal_source src(fixture_seed(29));
    base::ring_buffer ring(2 * nwords);
    core::producer_options opts;
    opts.total_words = windows * nwords;
    core::word_producer producer(src, ring, opts);
    core::window_pump pump(ring, mon);
    core::run_pipeline(producer, pump, nullptr, windows);

    const core::stream_stats stats = core::snapshot(ring);
    EXPECT_EQ(stats.words, windows * nwords);
    EXPECT_EQ(stats.ring_capacity, ring.capacity());
    EXPECT_GE(stats.max_occupancy, 1u);
    EXPECT_LE(stats.max_occupancy, stats.ring_capacity);
}

// ---------------------------------------------------------------------------
// Window tap (evidence capture) and the mid-stream reconfiguration
// barrier (core/supervisor.hpp builds on both).
// ---------------------------------------------------------------------------

TEST(stream, tap_sees_exactly_the_raw_window_words)
{
    const hw::block_config cfg =
        core::paper_design(7, core::tier::light);
    const std::size_t nwords = 2; // 128-bit windows
    const std::uint64_t windows = 6;

    core::monitor mon(cfg, 0.01);
    trng::ideal_source src(fixture_seed(21));
    base::ring_buffer ring(2 * nwords);
    core::producer_options opts;
    opts.total_words = windows * nwords;
    core::word_producer producer(src, ring, opts);
    core::window_pump pump(ring, mon);
    std::vector<std::uint64_t> tapped;
    std::vector<std::uint64_t> tap_indexes;
    pump.set_tap([&](std::uint64_t index, const std::uint64_t* words,
                     std::size_t n) {
        tap_indexes.push_back(index);
        tapped.insert(tapped.end(), words, words + n);
    });
    core::run_pipeline(producer, pump, nullptr, windows);

    // The tap must have seen the producer's exact word stream, window by
    // window, before testing.
    trng::ideal_source replay(fixture_seed(21));
    const std::vector<std::uint64_t> expected =
        replay.generate_words(windows * nwords);
    EXPECT_EQ(tapped, expected);
    EXPECT_EQ(tap_indexes,
              (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(stream, untapped_pump_takes_the_zero_copy_path)
{
    // Without a tap every window should be fed straight from ring
    // storage (peek/consume), and the verdicts must match a tapped run
    // of the same stream, which takes the assemble-copy path.
    const hw::block_config cfg =
        core::paper_design(7, core::tier::light);
    const std::size_t nwords = 2;
    const std::uint64_t windows = 8;

    const auto run = [&](bool tapped) {
        core::monitor mon(cfg, 0.01);
        trng::ideal_source src(fixture_seed(24));
        base::ring_buffer ring(2 * nwords);
        core::producer_options opts;
        opts.total_words = windows * nwords;
        core::word_producer producer(src, ring, opts);
        core::window_pump pump(ring, mon);
        if (tapped) {
            pump.set_tap([](std::uint64_t, const std::uint64_t*,
                            std::size_t) {});
        }
        std::vector<core::window_report> reports;
        core::run_pipeline(producer, pump,
                           [&](const core::window_report& wr) {
                               reports.push_back(wr);
                               return true;
                           },
                           windows);
        return std::make_pair(pump.zero_copy_windows(),
                              std::move(reports));
    };

    const auto [zc_untapped, direct] = run(false);
    const auto [zc_tapped, copied] = run(true);

    EXPECT_EQ(zc_untapped, windows)
        << "every untapped window must be fed from ring storage";
    EXPECT_EQ(zc_tapped, 0u)
        << "the tap contract (contiguous window) forces the copy path";
    ASSERT_EQ(direct.size(), copied.size());
    for (std::uint64_t w = 0; w < windows; ++w) {
        expect_same_report(direct[w], copied[w],
                           "window " + std::to_string(w));
    }
}

TEST(stream, zero_copy_survives_windows_larger_than_the_ring_span)
{
    // A window of 8 words over a ring of 4 forces every window through
    // multiple peek/consume rounds (spans clip at the buffer end); the
    // partial window must persist as block state between rounds.
    const hw::block_config cfg = core::custom_design(
        9, hw::test_set{}
               .with(hw::test_id::frequency)
               .with(hw::test_id::runs)); // 512-bit windows, 8 words
    const std::size_t nwords = 8;
    const std::uint64_t windows = 5;

    core::monitor mon(cfg, 0.01);
    trng::ideal_source src(fixture_seed(25));
    base::ring_buffer ring(nwords / 2);
    core::producer_options opts;
    opts.total_words = windows * nwords;
    opts.batch_words = 2;
    core::word_producer producer(src, ring, opts);
    core::window_pump pump(ring, mon);
    std::vector<core::window_report> reports;
    core::run_pipeline(producer, pump,
                       [&](const core::window_report& wr) {
                           reports.push_back(wr);
                           return true;
                       },
                       windows);

    EXPECT_EQ(pump.zero_copy_windows(), windows);
    ASSERT_EQ(reports.size(), windows);
    // Register-exact with the batch loop over the same stream.
    core::monitor batch(cfg, 0.01);
    trng::ideal_source replay(fixture_seed(25));
    for (std::uint64_t w = 0; w < windows; ++w) {
        const auto ref = batch.test_window_words(replay);
        expect_same_report(ref, reports[w],
                           "window " + std::to_string(w));
    }
}

TEST(stream, barrier_reconfigures_mid_stream_without_dropping_words)
{
    // 20 words: two 128-bit windows at design A, then the barrier
    // reprograms the live block to the 4x-longer design B and the pump
    // re-frames -- the remaining 16 words become two 512-bit windows.
    const hw::block_config design_a =
        core::paper_design(7, core::tier::light);
    const hw::block_config design_b = core::custom_design(
        9, hw::test_set{}
               .with(hw::test_id::frequency)
               .with(hw::test_id::runs)
               .with(hw::test_id::cumulative_sums));

    core::monitor mon(design_a, 0.01);
    trng::ideal_source src(fixture_seed(22));
    base::ring_buffer ring(16);
    core::producer_options opts;
    opts.total_words = 20;
    core::word_producer producer(src, ring, opts);
    core::window_pump pump(ring, mon);
    pump.set_barrier([&](std::uint64_t next_window) {
        if (next_window == 2) {
            mon.reconfigure(design_b, 0.01);
        }
    });
    std::vector<core::window_report> reports;
    const std::uint64_t pumped = core::run_pipeline(
        producer, pump,
        [&](const core::window_report& wr) {
            reports.push_back(wr);
            return true;
        },
        0);

    ASSERT_EQ(pumped, 4u);
    EXPECT_EQ(pump.leftover_words(), 0u) << "no word may be dropped";

    // Register-exactness of the split: fresh monitors fed the same word
    // stream must reproduce every verdict.
    trng::ideal_source replay(fixture_seed(22));
    const std::vector<std::uint64_t> words = replay.generate_words(20);
    core::monitor fresh_a(design_a, 0.01);
    core::monitor fresh_b(design_b, 0.01);
    const auto window_of = [&](core::monitor& m, std::size_t from,
                               std::size_t count, std::uint64_t index) {
        auto wr = m.test_packed(words.data() + from, count);
        // The fresh monitors start counting at 0; align to the live
        // monitor's continuous window count.
        wr.window_index = index;
        return wr;
    };
    expect_same_report(reports[0], window_of(fresh_a, 0, 2, 0),
                       "A window 0");
    expect_same_report(reports[1], window_of(fresh_a, 2, 2, 1),
                       "A window 1");
    expect_same_report(reports[2], window_of(fresh_b, 4, 8, 2),
                       "B window 2");
    expect_same_report(reports[3], window_of(fresh_b, 12, 8, 3),
                       "B window 3");
}

} // namespace
