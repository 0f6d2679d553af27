// Differential kernel-oracle harness: the per-bit lane is the ground
// truth, and every fast lane -- span (under each kernel variant, at every
// chunking) and the bit-sliced fleet lane -- must reproduce it
// register-exactly.
//
// The span kernels (base/bits.hpp) are runtime-dispatched through a
// process-wide kernel_variant; this suite pins each variant (reference,
// portable, simd) against the per-bit oracle over all eight paper design
// points, seeded random streams, adversarial source models at several
// severities, and pathological inputs (all-zero, all-one, alternating,
// template floods, a single flipped bit at every word offset), fed as one
// span or as chunks of every size from 1 to 64 bits.  The sliced lane
// (hw::sliced_block) is pinned against 64 independent scalar engines fed
// the same per-channel streams, and core::sliced_software_pass against
// the full software_runner verdict path.
#include "base/bits.hpp"
#include "core/critical_values.hpp"
#include "core/design_config.hpp"
#include "core/fleet_monitor.hpp"
#include "core/monitor.hpp"
#include "core/population.hpp"
#include "core/scenario.hpp"
#include "core/sw_routines.hpp"
#include "hw/health_tests.hpp"
#include "hw/sliced_block.hpp"
#include "hw/testing_block.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"
#include "trng/xoshiro.hpp"

#include "support/fixed_seed.hpp"

#include <algorithm>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace otf;
using core::paper_design;
using core::tier;
using test::fixture_seed;
using test::kCanonicalSeed;

// ---------------------------------------------------------------------------
// Kernel-variant sweep plumbing.  The variant is process-wide state, so
// every test restores the process default on exit.
// ---------------------------------------------------------------------------

constexpr bits::kernel_variant kAllVariants[] = {
    bits::kernel_variant::reference,
    bits::kernel_variant::portable,
    bits::kernel_variant::simd,
};

const char* variant_name(bits::kernel_variant v)
{
    switch (v) {
    case bits::kernel_variant::reference: return "reference";
    case bits::kernel_variant::portable: return "portable";
    case bits::kernel_variant::simd: return "simd";
    }
    return "?";
}

struct variant_guard {
    ~variant_guard()
    {
        bits::set_kernel_variant(bits::default_kernel_variant());
    }
};

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

bit_sequence random_sequence(std::uint64_t seed, std::uint64_t n)
{
    trng::ideal_source src(seed);
    return src.generate(n);
}

bit_sequence alternating_sequence(std::uint64_t n)
{
    bit_sequence seq;
    for (std::uint64_t i = 0; i < n; ++i) {
        seq.push_back((i & 1) != 0);
    }
    return seq;
}

// Repeats the non-overlapping test's 9-bit template so matches straddle
// word and block boundaries.
bit_sequence template_stress_sequence(std::uint64_t n)
{
    const bit_sequence pattern = bit_sequence::from_string("000000001");
    bit_sequence seq;
    for (std::uint64_t i = 0; i < n; ++i) {
        seq.push_back(pattern[i % pattern.size()]);
    }
    return seq;
}

/// Pack bits [pos, pos + len) of `seq` into a fresh LSB-first span buffer
/// (bit 0 of the buffer is seq[pos]) -- what a chunked feed_span caller
/// hands the block for each chunk.
std::vector<std::uint64_t> pack_range(const bit_sequence& seq,
                                      std::size_t pos, std::size_t len)
{
    std::vector<std::uint64_t> words((len + 63) / 64, 0);
    for (std::size_t i = 0; i < len; ++i) {
        words[i / 64] |= static_cast<std::uint64_t>(seq[pos + i] ? 1 : 0)
            << (i % 64);
    }
    return words;
}

void expect_identical_registers(const hw::testing_block& oracle,
                                const hw::testing_block& fast,
                                const std::string& context)
{
    ASSERT_EQ(oracle.registers().size(), fast.registers().size());
    for (std::size_t i = 0; i < oracle.registers().size(); ++i) {
        EXPECT_EQ(oracle.registers().read_raw(i),
                  fast.registers().read_raw(i))
            << context << ": register "
            << oracle.registers().entry(i).name;
    }
    EXPECT_EQ(oracle.bits_consumed(), fast.bits_consumed()) << context;
    EXPECT_EQ(oracle.done(), fast.done()) << context;
}

/// Run `seq` through the per-bit oracle once, then through the span lane
/// under every kernel variant, asserting register-exact state each time.
void expect_span_matches_oracle(const hw::block_config& cfg,
                                const bit_sequence& seq,
                                const std::string& context)
{
    ASSERT_EQ(seq.size(), cfg.n()) << context;
    hw::testing_block oracle(cfg);
    oracle.run(seq);
    const auto words = seq.to_words();
    variant_guard guard;
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        hw::testing_block fast(cfg);
        fast.feed_span(words.data(), cfg.n());
        fast.finish();
        expect_identical_registers(
            oracle, fast, context + " [" + variant_name(v) + "]");
    }
}

// ---------------------------------------------------------------------------
// Span lane vs per-bit oracle: all eight paper design points, under every
// kernel variant, on random and pathological windows.
// ---------------------------------------------------------------------------

class kernel_oracle_designs
    : public ::testing::TestWithParam<hw::block_config> {};

TEST_P(kernel_oracle_designs, span_lane_matches_per_bit_for_every_variant)
{
    const hw::block_config cfg = GetParam();
    expect_span_matches_oracle(
        cfg, random_sequence(fixture_seed(20), cfg.n()), cfg.name + " random");
    expect_span_matches_oracle(
        cfg, bit_sequence(cfg.n(), false), cfg.name + " all-zero");
    expect_span_matches_oracle(
        cfg, bit_sequence(cfg.n(), true), cfg.name + " all-one");
    expect_span_matches_oracle(
        cfg, alternating_sequence(cfg.n()), cfg.name + " alternating");
    expect_span_matches_oracle(cfg, template_stress_sequence(cfg.n()),
                               cfg.name + " template flood");
}

// ---------------------------------------------------------------------------
// Every chunk size: the window fed as consecutive spans of 1..64 bits (and
// a few longer odd lengths) walks every chunk seam through every word
// offset -- the single-word case of the span lane, at every width.
// ---------------------------------------------------------------------------

TEST_P(kernel_oracle_designs, every_chunk_size_matches_per_bit)
{
    const hw::block_config cfg = GetParam();
    const bit_sequence seq = random_sequence(fixture_seed(14), cfg.n());
    hw::testing_block oracle(cfg);
    oracle.run(seq);

    std::vector<std::size_t> sizes;
    for (std::size_t c = 1; c <= 64; ++c) {
        sizes.push_back(c);
    }
    sizes.insert(sizes.end(), {100, 997, 4097});
    for (const std::size_t chunk_bits : sizes) {
        hw::testing_block fast(cfg);
        for (std::size_t pos = 0; pos < seq.size(); pos += chunk_bits) {
            const std::size_t take = std::min(chunk_bits, seq.size() - pos);
            const auto chunk = pack_range(seq, pos, take);
            fast.feed_span(chunk.data(), take);
        }
        fast.finish();
        expect_identical_registers(
            oracle, fast,
            cfg.name + " chunks of " + std::to_string(chunk_bits));
        if (::testing::Test::HasFailure()) {
            return; // one failing width is enough to diagnose
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    all_paper_designs, kernel_oracle_designs,
    ::testing::ValuesIn(core::all_paper_designs()),
    [](const ::testing::TestParamInfo<hw::block_config>& info) {
        std::string name = info.param.name;
        for (char& c : name) {
            if (c == '=' || c == ' ') {
                c = '_';
            }
        }
        return name;
    });

// ---------------------------------------------------------------------------
// Option coverage: marginal transfer and double buffering, under every
// kernel variant (the double-buffered block is checked across a restart,
// where the latched first window must give way to identical second-window
// results).
// ---------------------------------------------------------------------------

TEST(kernel_oracle, marginal_transfer_configuration_matches_per_bit)
{
    hw::block_config cfg = paper_design(16, tier::high);
    cfg.serial_transfer_marginals = true;
    expect_span_matches_oracle(cfg, random_sequence(fixture_seed(2), cfg.n()),
                               "marginal transfer");
}

TEST(kernel_oracle, double_buffered_configuration_matches_per_bit)
{
    hw::block_config cfg = paper_design(16, tier::high);
    cfg.double_buffered = true;
    const bit_sequence first = random_sequence(fixture_seed(3), cfg.n());
    const bit_sequence second = random_sequence(fixture_seed(4), cfg.n());
    const auto first_words = first.to_words();
    const auto second_words = second.to_words();
    hw::testing_block oracle(cfg);
    oracle.run(first);
    hw::testing_block oracle2(cfg);
    oracle2.run(first);
    oracle2.restart();
    oracle2.run(second);
    variant_guard guard;
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        const std::string ctx =
            std::string("double buffered [") + variant_name(v) + "]";
        hw::testing_block fast(cfg);
        fast.feed_span(first_words.data(), cfg.n());
        fast.finish();
        expect_identical_registers(oracle, fast, ctx);
        fast.restart();
        fast.feed_span(second_words.data(), cfg.n());
        fast.finish();
        expect_identical_registers(oracle2, fast, ctx + " window 2");
    }
}

// ---------------------------------------------------------------------------
// Adversarial streams: each of the six source models, at a mild and at
// the peak severity, through every span kernel variant.  Degraded streams
// stress exactly the kernels a healthy stream never leaves the fast path
// of (long runs, saturated popcounts, template match floods).
// ---------------------------------------------------------------------------

std::unique_ptr<trng::source_model> make_model(unsigned which,
                                               std::uint64_t seed)
{
    auto inner = std::make_unique<trng::ideal_source>(seed);
    switch (which) {
    case 0:
        return std::make_unique<trng::rtn_source>(std::move(inner), seed + 1);
    case 1:
        return std::make_unique<trng::bias_drift_source>(std::move(inner),
                                                         seed + 1);
    case 2:
        return std::make_unique<trng::lockin_source>(std::move(inner),
                                                     seed + 1);
    case 3:
        return std::make_unique<trng::fault_source>(std::move(inner),
                                                    seed + 1);
    case 4:
        return std::make_unique<trng::entropy_collapse_source>(
            std::move(inner), seed + 1);
    default:
        return std::make_unique<trng::substitution_source>(std::move(inner),
                                                           seed + 1);
    }
}

TEST(kernel_oracle, adversarial_sources_match_per_bit_at_every_severity)
{
    const hw::block_config cfg = paper_design(16, tier::high);
    for (unsigned which = 0; which < 6; ++which) {
        for (const double severity : {0.25, 1.0}) {
            auto model = make_model(which, fixture_seed(30 + which));
            model->set_severity(severity);
            const bit_sequence seq = model->generate(cfg.n());
            expect_span_matches_oracle(
                cfg, seq,
                model->name() + " severity " + std::to_string(severity));
        }
    }
}

// ---------------------------------------------------------------------------
// Single-flip sweep: a lone 1 bit at every offset of the window walks the
// flip through every bit position of every span word -- any off-by-one in
// a kernel's tail masking or word seam shows up at some offset.
// ---------------------------------------------------------------------------

TEST(kernel_oracle, single_flip_at_every_word_offset_matches_per_bit)
{
    const hw::block_config cfg = paper_design(7, tier::light);
    for (std::size_t flip = 0; flip < cfg.n(); ++flip) {
        bit_sequence seq(cfg.n(), false);
        seq.set(flip, true);
        expect_span_matches_oracle(cfg, seq,
                                   "flip at " + std::to_string(flip));
    }
}

// ---------------------------------------------------------------------------
// Chunked spans: ragged chunk lengths land every chunk seam at a
// different bit offset, exercising the kernels' unaligned entry and
// tail-word masking against the same oracle.
// ---------------------------------------------------------------------------

TEST(kernel_oracle, ragged_span_chunks_match_per_bit_for_every_variant)
{
    const hw::block_config cfg = paper_design(16, tier::high);
    const bit_sequence seq = random_sequence(fixture_seed(40), cfg.n());
    hw::testing_block oracle(cfg);
    oracle.run(seq);

    variant_guard guard;
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        hw::testing_block fast(cfg);
        trng::xoshiro256ss chunk_rng(fixture_seed(41));
        std::size_t pos = 0;
        while (pos < seq.size()) {
            std::size_t take = 1 + chunk_rng.next() % 131;
            if (take > seq.size() - pos) {
                take = seq.size() - pos;
            }
            const auto chunk = pack_range(seq, pos, take);
            fast.feed_span(chunk.data(), take);
            pos += take;
        }
        fast.finish();
        expect_identical_registers(
            oracle, fast,
            std::string("ragged span [") + variant_name(v) + "]");
    }
}

// ---------------------------------------------------------------------------
// SP 800-90B health-test engines: span chunks of every size from 1 to 64
// bits, then random ragged sizes, against the per-bit engines on healthy,
// sticky and stuck streams.
// ---------------------------------------------------------------------------

struct health_pair {
    hw::repetition_count_hw rct{21};
    hw::adaptive_proportion_hw apt{10, 700};
};

void expect_same_health(const health_pair& oracle, const health_pair& fast,
                        const std::string& context)
{
    EXPECT_EQ(oracle.rct.current_run(), fast.rct.current_run()) << context;
    EXPECT_EQ(oracle.rct.longest_run(), fast.rct.longest_run()) << context;
    EXPECT_EQ(oracle.rct.alarm(), fast.rct.alarm()) << context;
    EXPECT_EQ(oracle.apt.current_count(), fast.apt.current_count())
        << context;
    EXPECT_EQ(oracle.apt.alarm(), fast.apt.alarm()) << context;
}

/// Drive the per-bit `oracle` pair and span-chunked pairs (every fixed
/// chunk size 1..64, then random 1..64-bit chunks) over `seq`; the caller
/// checks its alarm expectations on `oracle`.
void check_health_chunks(const bit_sequence& seq, std::uint64_t chunk_seed,
                         const std::string& context, health_pair& oracle)
{
    for (std::size_t i = 0; i < seq.size(); ++i) {
        oracle.rct.consume(seq[i], i);
        oracle.apt.consume(seq[i], i);
    }
    const auto feed = [&](health_pair& fast, std::size_t pos,
                          std::size_t take) {
        const auto chunk = pack_range(seq, pos, take);
        fast.rct.consume_span(chunk.data(), take, pos);
        fast.apt.consume_span(chunk.data(), take, pos);
    };
    for (std::size_t size = 1; size <= 64; ++size) {
        health_pair fast;
        for (std::size_t pos = 0; pos < seq.size(); pos += size) {
            feed(fast, pos, std::min(size, seq.size() - pos));
        }
        expect_same_health(oracle, fast,
                           context + " chunks of " + std::to_string(size));
    }
    health_pair fast;
    trng::xoshiro256ss chunk_rng(chunk_seed);
    for (std::size_t pos = 0; pos < seq.size();) {
        const std::size_t take = std::min<std::size_t>(
            1 + chunk_rng.next() % 64, seq.size() - pos);
        feed(fast, pos, take);
        pos += take;
    }
    expect_same_health(oracle, fast, context + " ragged chunks");
}

TEST(kernel_oracle, health_engines_match_per_bit_on_random_stream)
{
    health_pair oracle;
    check_health_chunks(random_sequence(fixture_seed(7), 1 << 14), 11,
                        "random", oracle);
    EXPECT_FALSE(oracle.rct.alarm());
}

TEST(kernel_oracle, health_engines_match_per_bit_on_sticky_stream)
{
    // Sticky source: long equal runs trip the RCT on both lanes alike
    // (runs average ~33 bits, far beyond the cutoff of 21; the APT stays
    // quiet because the 0-runs and 1-runs balance within its window).
    trng::markov_source src(fixture_seed(8), 0.97);
    health_pair oracle;
    check_health_chunks(src.generate(1 << 12), 13, "sticky", oracle);
    EXPECT_TRUE(oracle.rct.alarm());
}

TEST(kernel_oracle, health_engines_match_per_bit_on_stuck_stream)
{
    // Total failure: every bit matches the window reference, so the APT
    // must alarm on both lanes (and the RCT trivially does too).
    health_pair oracle;
    check_health_chunks(bit_sequence(1 << 12, true), 17, "stuck", oracle);
    EXPECT_TRUE(oracle.rct.alarm());
    EXPECT_TRUE(oracle.apt.alarm());
}

TEST(kernel_oracle, shared_window_engine_must_override_consume_span)
{
    // An engine that declares it watches the shared template window but
    // inherits the per-bit consume_span default would silently read a
    // stale window (the block shifts it once per span); the base class
    // refuses loudly.
    class lazy_engine final : public hw::engine {
    public:
        lazy_engine() : hw::engine("lazy") {}
        void consume(bool, std::uint64_t) override {}
        bool watches_shared_window() const override { return true; }
        void add_registers(hw::register_map&) const override {}

    protected:
        rtl::resources self_cost() const override { return {}; }
        void self_reset() override {}
    };
    lazy_engine engine;
    engine.consume(true, 0); // the per-bit lane stays usable
    const std::uint64_t word = 0;
    EXPECT_THROW(engine.consume_span(&word, 64, 0), std::logic_error);
}

// ---------------------------------------------------------------------------
// Monitor end to end: every selectable lane produces the same window
// report for the same packed window (a lone monitor maps sliced to span).
// ---------------------------------------------------------------------------

TEST(kernel_oracle, monitor_lanes_agree_end_to_end)
{
    const hw::block_config cfg = paper_design(16, tier::high);
    trng::ideal_source src(fixture_seed(50));
    const auto words = src.generate_words(cfg.n() / 64);

    core::monitor oracle(cfg, 0.01);
    const auto a =
        oracle.test_packed(words.data(), words.size(),
                           core::ingest_lane::per_bit);
    for (const core::ingest_lane lane :
         {core::ingest_lane::span, core::ingest_lane::sliced}) {
        core::monitor fast(cfg, 0.01);
        const auto b = fast.test_packed(words.data(), words.size(), lane);
        EXPECT_EQ(a.software.all_pass, b.software.all_pass);
        ASSERT_EQ(a.software.verdicts.size(), b.software.verdicts.size());
        for (std::size_t i = 0; i < a.software.verdicts.size(); ++i) {
            EXPECT_EQ(a.software.verdicts[i].pass,
                      b.software.verdicts[i].pass);
            EXPECT_EQ(a.software.verdicts[i].statistic,
                      b.software.verdicts[i].statistic)
                << a.software.verdicts[i].name;
            EXPECT_EQ(a.software.verdicts[i].bound,
                      b.software.verdicts[i].bound);
        }
        EXPECT_EQ(a.sw_cycles, b.sw_cycles);
    }
}

// ---------------------------------------------------------------------------
// Bit-sliced lane vs 64 independent scalar engines.  Every channel gets
// its own stream (healthy, biased, sticky, and stuck channels mixed), the
// sliced group consumes them transposed, and every per-channel statistic
// must match the scalar engines bit for bit -- across window restarts,
// with the continuous health tests running through them.
// ---------------------------------------------------------------------------

struct scalar_channel {
    bit_sequence seq;
    hw::repetition_count_hw rct;
    hw::adaptive_proportion_hw apt;

    scalar_channel(bit_sequence s, unsigned rct_cutoff, unsigned apt_log2,
                   unsigned apt_cutoff)
        : seq(std::move(s)), rct(rct_cutoff), apt(apt_log2, apt_cutoff)
    {
    }
};

bit_sequence channel_stream(unsigned channel, std::uint64_t nbits)
{
    const std::uint64_t seed = fixture_seed(60 + channel);
    switch (channel % 5) {
    case 0:
        return trng::ideal_source(seed).generate(nbits);
    case 1:
        return trng::biased_source(seed, 0.3).generate(nbits);
    case 2:
        // Sticky: mean run ~33 bits, far beyond the RCT cutoff of 21.
        return trng::markov_source(seed, 0.97).generate(nbits);
    case 3:
        return trng::biased_source(seed, 0.85).generate(nbits);
    default:
        // Stuck-at-one: trips the RCT and saturates the APT count.
        return bit_sequence(nbits, true);
    }
}

TEST(kernel_oracle, sliced_block_matches_scalar_engines_across_windows)
{
    constexpr unsigned lanes = hw::sliced_block::lanes;
    constexpr std::uint64_t window = 1024;
    constexpr std::uint64_t nwindows = 3;
    constexpr std::uint64_t nbits = window * nwindows;
    constexpr unsigned rct_cutoff = 21;
    constexpr unsigned apt_log2 = 10;
    constexpr unsigned apt_cutoff = 700;

    hw::sliced_config scfg;
    scfg.n = window;
    scfg.rct = true;
    scfg.rct_cutoff = rct_cutoff;
    scfg.apt = true;
    scfg.apt_log2_window = apt_log2;
    scfg.apt_cutoff = apt_cutoff;
    hw::sliced_block group(scfg);

    std::vector<std::unique_ptr<scalar_channel>> channels;
    channels.reserve(lanes);
    for (unsigned c = 0; c < lanes; ++c) {
        channels.push_back(std::make_unique<scalar_channel>(
            channel_stream(c, nbits), rct_cutoff, apt_log2, apt_cutoff));
    }

    for (std::uint64_t w = 0; w < nwindows; ++w) {
        if (w != 0) {
            group.restart();
        }
        // Sliced lane: 64-bit channel-major chunks, transposed inside.
        for (std::uint64_t k = 0; k < window / 64; ++k) {
            std::uint64_t chunk[lanes];
            for (unsigned c = 0; c < lanes; ++c) {
                const auto words = pack_range(channels[c]->seq,
                                              w * window + k * 64, 64);
                chunk[c] = words[0];
            }
            group.feed_chunk(chunk);
        }
        // Scalar lane: one engine pair per channel plus naive per-window
        // frequency/runs references.
        for (unsigned c = 0; c < lanes; ++c) {
            std::uint64_t ones = 0;
            std::uint64_t runs = 0;
            bool prev = false;
            for (std::uint64_t i = 0; i < window; ++i) {
                const std::uint64_t global = w * window + i;
                const bool bit = channels[c]->seq[global];
                channels[c]->rct.consume(bit, global);
                channels[c]->apt.consume(bit, global);
                ones += bit ? 1 : 0;
                if (i == 0 || bit != prev) {
                    ++runs;
                }
                prev = bit;
            }
            const std::string ctx =
                "channel " + std::to_string(c) + " window "
                + std::to_string(w);
            EXPECT_EQ(group.ones(c), ones) << ctx;
            EXPECT_EQ(group.s_final(c),
                      2 * static_cast<std::int64_t>(ones)
                          - static_cast<std::int64_t>(window))
                << ctx;
            EXPECT_EQ(group.n_runs(c), runs) << ctx;
            EXPECT_EQ(group.rct_alarm(c), channels[c]->rct.alarm()) << ctx;
            EXPECT_EQ(group.rct_current_run(c),
                      channels[c]->rct.current_run())
                << ctx;
            EXPECT_EQ(group.rct_longest_run(c),
                      channels[c]->rct.longest_run())
                << ctx;
            EXPECT_EQ(group.apt_alarm(c), channels[c]->apt.alarm()) << ctx;
            EXPECT_EQ(group.apt_current_count(c),
                      channels[c]->apt.current_count())
                << ctx;
        }
        EXPECT_EQ(group.window_bits(), window);
        EXPECT_EQ(group.bits_consumed(), (w + 1) * window);
    }
    // The mixed channel set must actually exercise both alarm paths.
    EXPECT_TRUE(group.rct_alarm(2));  // sticky markov channel
    EXPECT_TRUE(group.apt_alarm(4));  // stuck-at-one channel
    EXPECT_FALSE(group.rct_alarm(0)); // healthy channel stays quiet
    EXPECT_FALSE(group.apt_alarm(0));
}

TEST(kernel_oracle, sliced_block_validates_configuration_and_overruns)
{
    hw::sliced_config bad;
    bad.n = 100; // not a multiple of 64
    EXPECT_THROW(hw::sliced_block{bad}, std::invalid_argument);
    bad.n = 0;
    EXPECT_THROW(hw::sliced_block{bad}, std::invalid_argument);
    bad.n = 128;
    bad.rct = true;
    bad.rct_cutoff = 1;
    EXPECT_THROW(hw::sliced_block{bad}, std::invalid_argument);
    bad.rct_cutoff = 21;
    bad.apt = true;
    bad.apt_log2_window = 5; // below the 64-step transposed chunk
    EXPECT_THROW(hw::sliced_block{bad}, std::invalid_argument);
    bad.apt_log2_window = 17;
    EXPECT_THROW(hw::sliced_block{bad}, std::invalid_argument);
    bad.apt_log2_window = 10;

    hw::sliced_block group({.n = 128});
    const std::uint64_t zeros[hw::sliced_block::lanes] = {};
    group.feed_chunk(zeros);
    group.feed_chunk(zeros);
    EXPECT_THROW(group.step(0), std::logic_error);
    EXPECT_THROW(group.feed_chunk(zeros), std::logic_error);
    EXPECT_THROW(group.ones(64), std::invalid_argument);
    // Health-test accessors refuse when the test is not configured.
    EXPECT_THROW(group.rct_alarm(0), std::logic_error);
    EXPECT_THROW(group.apt_alarm(0), std::logic_error);
    group.restart();
    group.feed_chunk(zeros); // restart reopens the window
    EXPECT_EQ(group.window_bits(), 64u);
    EXPECT_EQ(group.bits_consumed(), 192u);
}

// ---------------------------------------------------------------------------
// sliced_software_pass vs the full software_runner: identical verdict
// vectors for the cheap always-on test set, on streams spanning clean
// passes and both failure directions.
// ---------------------------------------------------------------------------

// Without health tests configured, feed_chunk takes a batched path
// (per-channel popcounts rippled in as sliced multi-bit addends) instead
// of 64 per-plane step() calls.  Both must land on identical counters,
// including the run seam between consecutive chunks and across restarts.
TEST(kernel_oracle, sliced_batched_feed_matches_stepwise)
{
    constexpr unsigned lanes = hw::sliced_block::lanes;
    constexpr std::uint64_t n = 4 * 64;
    hw::sliced_block batched({.n = n});
    hw::sliced_block stepwise({.n = n});
    trng::xoshiro256ss rng(fixture_seed(0x511cedfeedULL));

    for (std::uint64_t window = 0; window < 3; ++window) {
        if (window != 0) {
            batched.restart();
            stepwise.restart();
        }
        for (std::uint64_t chunk = 0; chunk < n / 64; ++chunk) {
            std::uint64_t words[lanes];
            for (unsigned i = 0; i < lanes; ++i) {
                // Mix pathological channels in with random ones so the
                // popcount extremes (0, 64) and long runs cross chunks.
                switch (i % 4) {
                case 0: words[i] = rng.next(); break;
                case 1: words[i] = 0; break;
                case 2: words[i] = ~std::uint64_t{0}; break;
                default: words[i] = 0xaaaaaaaaaaaaaaaaULL; break;
                }
            }
            batched.feed_chunk(words);
            std::uint64_t planes[lanes];
            for (unsigned i = 0; i < lanes; ++i) {
                planes[i] = words[i];
            }
            bits::transpose_64x64(planes);
            for (unsigned t = 0; t < lanes; ++t) {
                stepwise.step(planes[t]);
            }
        }
        for (unsigned c = 0; c < lanes; ++c) {
            ASSERT_EQ(batched.ones(c), stepwise.ones(c)) << "channel " << c;
            ASSERT_EQ(batched.n_runs(c), stepwise.n_runs(c))
                << "channel " << c;
            ASSERT_EQ(batched.s_final(c), stepwise.s_final(c))
                << "channel " << c;
        }
        EXPECT_EQ(batched.window_bits(), stepwise.window_bits());
        EXPECT_EQ(batched.bits_consumed(), stepwise.bits_consumed());
    }
}

// feed_tile is the fused fleet's ingest call: a channel-major tile of up
// to 64 words per channel, one transpose per tile instead of one per
// 64-bit chunk.  It must be bit-exact with the equivalent sequence of
// feed_chunk calls -- across ragged tile widths, window restarts, run
// seams between tiles, and with the health tests configured.
TEST(kernel_oracle, feed_tile_matches_feed_chunk)
{
    constexpr unsigned lanes = hw::sliced_block::lanes;
    constexpr std::uint64_t n = 6 * 64;
    constexpr std::size_t stride = 8; // > words: the stride is honoured
    hw::sliced_block tiled({.n = n});
    hw::sliced_block worded({.n = n});
    trng::xoshiro256ss rng(fixture_seed(0x7117eULL));
    std::vector<std::uint64_t> tile(std::size_t{lanes} * stride);

    for (std::uint64_t window = 0; window < 3; ++window) {
        if (window != 0) {
            tiled.restart();
            worded.restart();
        }
        // 6 words per window, fed as ragged tiles of 1, 3 and 2 words:
        // run seams land both inside a tile and between tiles.
        for (const std::size_t words : {1u, 3u, 2u}) {
            for (unsigned i = 0; i < lanes; ++i) {
                for (std::size_t k = 0; k < words; ++k) {
                    std::uint64_t w = 0;
                    switch (i % 4) {
                    case 0: w = rng.next(); break;
                    case 1: w = 0; break;
                    case 2: w = ~std::uint64_t{0}; break;
                    default: w = 0xaaaaaaaaaaaaaaaaULL; break;
                    }
                    tile[std::size_t{i} * stride + k] = w;
                }
            }
            tiled.feed_tile(tile.data(), stride, words);
            std::uint64_t chunk[lanes];
            for (std::size_t k = 0; k < words; ++k) {
                for (unsigned i = 0; i < lanes; ++i) {
                    chunk[i] = tile[std::size_t{i} * stride + k];
                }
                worded.feed_chunk(chunk);
            }
        }
        for (unsigned c = 0; c < lanes; ++c) {
            ASSERT_EQ(tiled.ones(c), worded.ones(c)) << "channel " << c;
            ASSERT_EQ(tiled.n_runs(c), worded.n_runs(c)) << "channel " << c;
            ASSERT_EQ(tiled.s_final(c), worded.s_final(c))
                << "channel " << c;
        }
        EXPECT_EQ(tiled.window_bits(), worded.window_bits());
        EXPECT_EQ(tiled.bits_consumed(), worded.bits_consumed());
    }
}

TEST(kernel_oracle, full_width_feed_tile_matches_scalar_engines)
{
    // The fused fleet feeds whole 64x64 tiles (64 words = 4096 bits per
    // channel per tile) with the health tests live; pin the tile path
    // against per-bit scalar engines on the adversarial channel mix.
    constexpr unsigned lanes = hw::sliced_block::lanes;
    constexpr std::uint64_t window = 2 * 64 * 64;
    constexpr std::uint64_t nwindows = 2;
    constexpr unsigned rct_cutoff = 21;
    constexpr unsigned apt_log2 = 10;
    constexpr unsigned apt_cutoff = 700;

    hw::sliced_config scfg;
    scfg.n = window;
    scfg.rct = true;
    scfg.rct_cutoff = rct_cutoff;
    scfg.apt = true;
    scfg.apt_log2_window = apt_log2;
    scfg.apt_cutoff = apt_cutoff;
    hw::sliced_block group(scfg);

    std::vector<std::unique_ptr<scalar_channel>> channels;
    channels.reserve(lanes);
    for (unsigned c = 0; c < lanes; ++c) {
        channels.push_back(std::make_unique<scalar_channel>(
            channel_stream(c, window * nwindows), rct_cutoff, apt_log2,
            apt_cutoff));
    }

    constexpr std::size_t tile_words = 64;
    std::vector<std::uint64_t> tile(std::size_t{lanes} * tile_words);
    for (std::uint64_t w = 0; w < nwindows; ++w) {
        if (w != 0) {
            group.restart();
        }
        for (std::uint64_t base = 0; base < window / 64;
             base += tile_words) {
            for (unsigned c = 0; c < lanes; ++c) {
                const auto words =
                    pack_range(channels[c]->seq,
                               w * window + base * 64, tile_words * 64);
                for (std::size_t k = 0; k < tile_words; ++k) {
                    tile[std::size_t{c} * tile_words + k] = words[k];
                }
            }
            group.feed_tile(tile.data(), tile_words, tile_words);
        }
        for (unsigned c = 0; c < lanes; ++c) {
            std::uint64_t ones = 0;
            std::uint64_t runs = 0;
            bool prev = false;
            for (std::uint64_t i = 0; i < window; ++i) {
                const std::uint64_t global = w * window + i;
                const bool bit = channels[c]->seq[global];
                channels[c]->rct.consume(bit, global);
                channels[c]->apt.consume(bit, global);
                ones += bit ? 1 : 0;
                if (i == 0 || bit != prev) {
                    ++runs;
                }
                prev = bit;
            }
            const std::string ctx = "channel " + std::to_string(c)
                + " window " + std::to_string(w);
            ASSERT_EQ(group.ones(c), ones) << ctx;
            ASSERT_EQ(group.n_runs(c), runs) << ctx;
            ASSERT_EQ(group.rct_alarm(c), channels[c]->rct.alarm()) << ctx;
            ASSERT_EQ(group.rct_longest_run(c),
                      channels[c]->rct.longest_run())
                << ctx;
            ASSERT_EQ(group.apt_alarm(c), channels[c]->apt.alarm()) << ctx;
            ASSERT_EQ(group.apt_current_count(c),
                      channels[c]->apt.current_count())
                << ctx;
        }
    }
    EXPECT_TRUE(group.rct_alarm(2)) << "sticky markov channel";
    EXPECT_TRUE(group.apt_alarm(4)) << "stuck-at-one channel";
}

TEST(kernel_oracle, feed_tile_validates_width_and_overruns)
{
    hw::sliced_block group({.n = 128});
    std::vector<std::uint64_t> tile(std::size_t{hw::sliced_block::lanes}
                                    * 65,
                                    0);
    EXPECT_THROW(group.feed_tile(tile.data(), 65, 65),
                 std::invalid_argument)
        << "a tile wider than 64 words cannot be transposed in one pass";
    group.feed_tile(tile.data(), 65, 0); // zero-width tile is a no-op
    EXPECT_EQ(group.window_bits(), 0u);
    group.feed_tile(tile.data(), 65, 2); // fills the 128-bit window
    EXPECT_EQ(group.window_bits(), 128u);
    EXPECT_THROW(group.feed_tile(tile.data(), 65, 1), std::logic_error)
        << "feeding past the window must be refused";
}

TEST(kernel_oracle, sliced_software_pass_matches_software_runner)
{
    const hw::block_config cfg = core::custom_design(
        10, hw::test_set{}
                .with(hw::test_id::frequency)
                .with(hw::test_id::runs));
    const core::critical_values cv =
        core::compute_critical_values(cfg, 0.01);
    ASSERT_TRUE(core::sliced_pass_supported(cfg.tests));

    for (unsigned c = 0; c < 24; ++c) {
        const bit_sequence seq = channel_stream(c, cfg.n());
        // Scalar path: the real register map through the real runner.
        core::monitor mon(cfg, 0.01);
        const auto scalar = mon.test_sequence(seq).software;
        // Sliced path: verdicts straight from the sliced statistics.
        std::uint64_t ones = 0;
        std::uint64_t runs = 0;
        bool prev = false;
        for (std::size_t i = 0; i < seq.size(); ++i) {
            ones += seq[i] ? 1 : 0;
            if (i == 0 || seq[i] != prev) {
                ++runs;
            }
            prev = seq[i];
        }
        const auto sliced = core::sliced_software_pass(
            cfg, cv,
            2 * static_cast<std::int64_t>(ones)
                - static_cast<std::int64_t>(cfg.n()),
            runs);

        const std::string ctx = "channel " + std::to_string(c);
        EXPECT_EQ(scalar.all_pass, sliced.all_pass) << ctx;
        ASSERT_EQ(scalar.verdicts.size(), sliced.verdicts.size()) << ctx;
        for (std::size_t i = 0; i < scalar.verdicts.size(); ++i) {
            EXPECT_EQ(scalar.verdicts[i].id, sliced.verdicts[i].id) << ctx;
            EXPECT_EQ(scalar.verdicts[i].name, sliced.verdicts[i].name)
                << ctx;
            EXPECT_EQ(scalar.verdicts[i].pass, sliced.verdicts[i].pass)
                << ctx << " " << scalar.verdicts[i].name;
            EXPECT_EQ(scalar.verdicts[i].statistic,
                      sliced.verdicts[i].statistic)
                << ctx << " " << scalar.verdicts[i].name;
            EXPECT_EQ(scalar.verdicts[i].bound, sliced.verdicts[i].bound)
                << ctx << " " << scalar.verdicts[i].name;
        }
    }
}

TEST(kernel_oracle, sliced_pass_rejects_heavy_test_sets)
{
    const hw::block_config heavy = paper_design(16, tier::high);
    EXPECT_FALSE(core::sliced_pass_supported(heavy.tests));
    EXPECT_FALSE(core::sliced_pass_supported(hw::test_set{}));
    const core::critical_values cv =
        core::compute_critical_values(heavy, 0.01);
    EXPECT_THROW(core::sliced_software_pass(heavy, cv, 0, 1),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fleet: sliced lane vs span lane on an eligible design.  65 channels so
// one leftover channel rides the span lane alongside the sliced group;
// every deterministic verdict field must agree, with sw_cycles the one
// documented difference (zero for sliced-group channels).
// ---------------------------------------------------------------------------

TEST(kernel_oracle, fleet_sliced_lane_matches_span_lane_verdicts)
{
    core::fleet_config cfg;
    cfg.block = core::custom_design(
        7, hw::test_set{}
               .with(hw::test_id::frequency)
               .with(hw::test_id::runs));
    cfg.channels = hw::sliced_block::lanes + 1;
    cfg.threads = 4;
    const auto make_source = [](unsigned c)
        -> std::unique_ptr<trng::entropy_source> {
        // A few heavily biased channels guarantee failing windows, so the
        // comparison covers failures_by_test and the alarm path too.
        if (c % 8 == 3) {
            return std::make_unique<trng::biased_source>(fixture_seed(c),
                                                         0.2);
        }
        return std::make_unique<trng::ideal_source>(fixture_seed(c));
    };

    cfg.lane = core::ingest_lane::sliced;
    ASSERT_TRUE(cfg.uses_sliced_lane());
    core::fleet_monitor sliced_fleet(cfg);
    const auto sliced = sliced_fleet.run(make_source, 6);

    cfg.lane = core::ingest_lane::span;
    EXPECT_FALSE(cfg.uses_sliced_lane());
    core::fleet_monitor span_fleet(cfg);
    const auto span = span_fleet.run(make_source, 6);

    EXPECT_EQ(sliced.windows, span.windows);
    EXPECT_EQ(sliced.failures, span.failures);
    EXPECT_EQ(sliced.bits, span.bits);
    EXPECT_EQ(sliced.channels_in_alarm, span.channels_in_alarm);
    EXPECT_EQ(sliced.failures_by_test, span.failures_by_test);
    EXPECT_GT(sliced.failures, 0u) << "biased channels must fail windows";
    ASSERT_EQ(sliced.channels.size(), span.channels.size());
    for (std::size_t c = 0; c < sliced.channels.size(); ++c) {
        const auto& a = sliced.channels[c];
        const auto& b = span.channels[c];
        const std::string ctx = "channel " + std::to_string(c);
        EXPECT_EQ(a.windows, b.windows) << ctx;
        EXPECT_EQ(a.failures, b.failures) << ctx;
        EXPECT_EQ(a.alarm, b.alarm) << ctx;
        EXPECT_EQ(a.first_alarm_window, b.first_alarm_window) << ctx;
        EXPECT_EQ(a.bits, b.bits) << ctx;
        EXPECT_EQ(a.failures_by_test, b.failures_by_test) << ctx;
        if (c < hw::sliced_block::lanes) {
            // Sliced-group channels trade the cycle model for batching.
            EXPECT_EQ(a.sw_cycles, 0u) << ctx;
        } else {
            // The leftover channel rode the span lane in both fleets.
            EXPECT_EQ(a.sw_cycles, b.sw_cycles) << ctx;
        }
    }
}

TEST(kernel_oracle, sliced_lane_eligibility_rules)
{
    core::fleet_config cfg;
    cfg.block = core::custom_design(
        7, hw::test_set{}
               .with(hw::test_id::frequency)
               .with(hw::test_id::runs));
    cfg.channels = 64;
    cfg.lane = core::ingest_lane::sliced;
    EXPECT_TRUE(cfg.uses_sliced_lane());

    core::fleet_config fewer = cfg;
    fewer.channels = 63; // not even one full group
    EXPECT_FALSE(fewer.uses_sliced_lane());

    core::fleet_config heavy = cfg;
    heavy.block = paper_design(16, tier::high);
    EXPECT_FALSE(heavy.uses_sliced_lane());

    core::fleet_config supervised = cfg;
    supervised.escalated_block = paper_design(16, tier::light);
    EXPECT_FALSE(supervised.uses_sliced_lane());

    core::fleet_config per_bit = cfg;
    per_bit.lane = core::ingest_lane::per_bit;
    EXPECT_FALSE(per_bit.uses_sliced_lane());
}

// ---------------------------------------------------------------------------
// Defaults: with no lane named, every layer runs the span lane, and the
// default packed feed is register-exact with the per-bit oracle.
// ---------------------------------------------------------------------------

TEST(kernel_oracle, defaults_run_the_span_lane)
{
    const core::fleet_config fleet;
    EXPECT_EQ(fleet.lane, core::ingest_lane::span);
    EXPECT_EQ(fleet.lane_description(), "span");
    EXPECT_EQ(core::supervisor_config{}.lane, core::ingest_lane::span);
    EXPECT_EQ(core::scenario_config{}.lane, core::ingest_lane::span);

    core::population_config pop;
    EXPECT_EQ(pop.lane, core::ingest_lane::span);
    pop.block = paper_design(7, tier::light);
    pop.devices = 4;
    pop.windows_per_device = 2;
    pop.shards = 1;
    pop.threads_per_shard = 1;
    EXPECT_EQ(core::population_monitor(pop).run().lane, "span");
}

TEST(kernel_oracle, default_feed_packed_is_register_exact_with_per_bit)
{
    const hw::block_config cfg = paper_design(16, tier::high);
    trng::ideal_source src(fixture_seed(12));
    core::monitor oracle(cfg, 0.01);
    core::monitor fast(cfg, 0.01);
    for (int w = 0; w < 3; ++w) {
        const auto words = src.generate_words(cfg.n() / 64);
        oracle.feed_packed(words.data(), words.size(),
                           core::ingest_lane::per_bit);
        fast.feed_packed(words.data(), words.size());
        // Before the close: every live counter of the two blocks.
        expect_identical_registers(oracle.block(), fast.block(),
                                   "window " + std::to_string(w));
        const auto a = oracle.finish_packed();
        const auto b = fast.finish_packed();
        EXPECT_EQ(a.software.all_pass, b.software.all_pass);
        ASSERT_EQ(a.software.verdicts.size(), b.software.verdicts.size());
        for (std::size_t i = 0; i < a.software.verdicts.size(); ++i) {
            EXPECT_EQ(a.software.verdicts[i].pass,
                      b.software.verdicts[i].pass);
            EXPECT_EQ(a.software.verdicts[i].statistic,
                      b.software.verdicts[i].statistic)
                << a.software.verdicts[i].name << " window " << w;
        }
        EXPECT_EQ(a.sw_cycles, b.sw_cycles);
    }
}

} // namespace
