// Differential kernel-oracle harness: the per-bit lane is the ground
// truth, and the span lane -- under each kernel variant, at every
// chunking -- must reproduce it register-exactly.
//
// The span kernels (base/bits.hpp) are runtime-dispatched through a
// process-wide kernel_variant; this suite pins each variant (reference,
// portable, simd) against the per-bit oracle over all eight paper design
// points and every serial pattern length, seeded random streams,
// the longest-run engine at every block length and its widest category
// range, adversarial source models at several severities, and pathological
// inputs (all-zero, all-one, alternating, long ones-runs, template floods, a
// single flipped bit at every word offset), fed as one span or as chunks of
// every size from 1 to 64 bits.  Every finished window of both lanes must
// also hold the counter invariants (support/counter_invariants.hpp).
#include "base/bits.hpp"
#include "core/design_config.hpp"
#include "core/fleet_monitor.hpp"
#include "core/monitor.hpp"
#include "core/population.hpp"
#include "core/scenario.hpp"
#include "hw/health_tests.hpp"
#include "hw/serial_hw.hpp"
#include "hw/testing_block.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"
#include "trng/xoshiro.hpp"

#include "support/counter_invariants.hpp"
#include "support/fixed_seed.hpp"
#include "support/print_config.hpp"

#include <algorithm>
#include <cstdint>
#include <gtest/gtest.h>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
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
    if (!oracle.done() || !fast.done()) {
        return; // the invariants hold for finished windows only
    }
    for (const hw::testing_block* block : {&oracle, &fast}) {
        for (const std::string& invariant :
             test::counter_invariant_violations(block->config(),
                                                block->registers())) {
            ADD_FAILURE() << context << ": " << invariant << " violated on "
                          << (block == &oracle ? "per-bit" : "span")
                          << " lane";
        }
    }
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

/// Run `seq` through the per-bit oracle once, then through the span lane
/// fed as consecutive spans of each of `chunk_sizes` bits, asserting
/// register-exact state each time (stops at the first failing size).
void expect_chunked_spans_match_oracle(
    const hw::block_config& cfg, const bit_sequence& seq,
    const std::vector<std::size_t>& chunk_sizes, const std::string& context)
{
    hw::testing_block oracle(cfg);
    oracle.run(seq);
    for (const std::size_t chunk_bits : chunk_sizes) {
        hw::testing_block fast(cfg);
        for (std::size_t pos = 0; pos < seq.size(); pos += chunk_bits) {
            const std::size_t take = std::min(chunk_bits, seq.size() - pos);
            const auto chunk = pack_range(seq, pos, take);
            fast.feed_span(chunk.data(), take);
        }
        fast.finish();
        expect_identical_registers(
            oracle, fast,
            context + " chunks of " + std::to_string(chunk_bits));
        if (::testing::Test::HasFailure()) {
            return; // one failing width is enough to diagnose
        }
    }
}

/// Chunk sizes 1..64 followed by `extra`.
std::vector<std::size_t> chunk_sizes_1_to_64(
    std::initializer_list<std::size_t> extra)
{
    std::vector<std::size_t> sizes;
    for (std::size_t c = 1; c <= 64; ++c) {
        sizes.push_back(c);
    }
    sizes.insert(sizes.end(), extra);
    return sizes;
}

// ---------------------------------------------------------------------------
// Every chunk size: the window fed as consecutive spans of 1..64 bits (and
// a few longer odd lengths) walks every chunk seam through every word
// offset -- the single-word case of the span lane, at every width.
// ---------------------------------------------------------------------------

TEST_P(kernel_oracle_designs, every_chunk_size_matches_per_bit)
{
    const hw::block_config cfg = GetParam();
    expect_chunked_spans_match_oracle(
        cfg, random_sequence(fixture_seed(14), cfg.n()),
        chunk_sizes_1_to_64({100, 997, 4097}), cfg.name);
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
// Serial engine at every pattern length: the paper fixes m = 4, but the
// engine takes any m in [3, 8] below log2 n -- the byte-table kernel
// (m <= 5) and the sliding window (m >= 6) -- with and without the
// marginal counter files, on short and long windows, fed as one span and
// in chunks of 1..64 and 997 bits.  The all-zero window puts all 8
// positions of every byte on one pattern, the worst case for the table
// kernel's 8-bit accumulator lanes.
// ---------------------------------------------------------------------------

TEST(kernel_oracle, serial_every_pattern_length_matches_per_bit)
{
    for (const unsigned log2_n : {7u, 16u}) {
        const std::uint64_t n = std::uint64_t{1} << log2_n;
        const std::pair<std::string, bit_sequence> inputs[] = {
            {"random", random_sequence(fixture_seed(60), n)},
            {"all-zero", bit_sequence(n, false)},
            {"all-one", bit_sequence(n, true)},
            {"alternating", alternating_sequence(n)},
        };
        std::vector<std::size_t> sizes = chunk_sizes_1_to_64({997});
        sizes.insert(sizes.begin(), n);
        for (unsigned m = 3; m <= 8 && m < log2_n; ++m) {
            for (const bool marginals : {false, true}) {
                hw::block_config cfg = core::custom_design(
                    log2_n, hw::test_set{}
                                .with(hw::test_id::serial)
                                .with(hw::test_id::approximate_entropy));
                cfg.serial_m = m;
                cfg.serial_transfer_marginals = marginals;
                cfg.validate();
                for (const auto& [name, seq] : inputs) {
                    expect_chunked_spans_match_oracle(
                        cfg, seq, sizes,
                        "n=2^" + std::to_string(log2_n) + " m="
                            + std::to_string(m)
                            + (marginals ? " marginals" : "") + " " + name);
                    if (::testing::Test::HasFailure()) {
                        return;
                    }
                }
            }
        }
    }
}

// Every byte-table entry, read through the shared pattern counter: a span
// of exactly 8 bits after every (m-1)-bit window is one table lookup for
// m <= 5 (one index per window and byte), and the sliding window for
// m >= 6.  Each must give the per-bit count of the patterns ending at
// those 8 positions.
TEST(kernel_oracle, serial_pattern_counter_matches_per_bit_on_every_byte)
{
    const variant_guard restore;
    for (const bits::kernel_variant v : kAllVariants) {
        bits::set_kernel_variant(v);
        for (unsigned m = 3; m <= 8; ++m) {
            const std::uint64_t mask = (std::uint64_t{1} << m) - 1;
            std::vector<std::uint32_t> counts(std::size_t{1} << m);
            std::vector<std::uint32_t> expected(counts.size());
            for (std::uint64_t window = 0; window < (mask + 1) / 2;
                 ++window) {
                for (std::uint64_t byte = 0; byte < 256; ++byte) {
                    std::fill(counts.begin(), counts.end(), 0u);
                    hw::count_patterns(&byte, 0, 8, m, window, counts.data());
                    std::fill(expected.begin(), expected.end(), 0u);
                    std::uint64_t w = window;
                    for (unsigned i = 0; i < 8; ++i) {
                        w = ((w << 1) | ((byte >> i) & 1u)) & mask;
                        ++expected[w];
                    }
                    ASSERT_EQ(counts, expected)
                        << variant_name(v) << " m=" << m << " window="
                        << window << " byte=" << byte;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Longest-run engine at every block length: M = 2^lr_log2_m for every
// lr_log2_m below log2 n (M < 8 takes only the kernel's masked pieces), over
// the widest category range the block can map (v_hi = M, with v_lo = 0 --
// one counter per possible longest run -- up to M = 64, then 125
// categories) and a narrow range that clamps at both ends.  Each window is
// fed as one span, in chunks of 1..64 bits, and in ragged chunks whose
// lengths and stream offsets are rarely multiples of 8; the long-runs
// window puts ones-runs of up to 300 bits across words and blocks.
// ---------------------------------------------------------------------------

/// Ones-runs of assorted lengths (around byte, word and block sizes), each
/// closed by a single zero.
bit_sequence long_runs_sequence(std::uint64_t n)
{
    constexpr std::uint64_t lengths[] = {1,  5,   8,   9,   15,  16,
                                         17, 63,  64,  65,  100, 127,
                                         128, 129, 255, 256, 300};
    bit_sequence seq;
    for (std::size_t k = 0; seq.size() < n; ++k) {
        const std::uint64_t run = lengths[k % std::size(lengths)];
        for (std::uint64_t i = 0; i < run && seq.size() < n; ++i) {
            seq.push_back(true);
        }
        if (seq.size() < n) {
            seq.push_back(false);
        }
    }
    return seq;
}

/// Category counters a longest-run-only block can map: each is a
/// top-level readout input, the 7-bit select addresses 128, and the
/// always-present cusum walk takes three (s_final, s_max, s_min).
constexpr unsigned kMaxLongestRunCategories = 125;

TEST(kernel_oracle, longest_run_every_block_length_matches_per_bit)
{
    for (const unsigned log2_n : {7u, 10u}) {
        const std::uint64_t n = std::uint64_t{1} << log2_n;
        const std::pair<std::string, bit_sequence> inputs[] = {
            {"random", random_sequence(fixture_seed(70), n)},
            {"all-zero", bit_sequence(n, false)},
            {"all-one", bit_sequence(n, true)},
            {"alternating", alternating_sequence(n)},
            {"long runs", long_runs_sequence(n)},
        };
        std::vector<std::size_t> sizes = chunk_sizes_1_to_64({});
        sizes.insert(sizes.begin(), n);
        for (unsigned log2_m = 1; log2_m < log2_n; ++log2_m) {
            const unsigned block = 1u << log2_m;
            // Widest: v_hi = M and as many categories below it as the
            // readout mux can address.
            const unsigned widest_lo =
                block + 1 > kMaxLongestRunCategories
                ? block + 1 - kMaxLongestRunCategories
                : 0;
            const std::pair<unsigned, unsigned> ranges[] = {
                {widest_lo, block}, {1, 2}};
            for (const auto& [v_lo, v_hi] : ranges) {
                hw::block_config cfg = core::custom_design(
                    log2_n, hw::test_set{}.with(hw::test_id::longest_run));
                cfg.lr_log2_m = log2_m;
                cfg.lr_v_lo = v_lo;
                cfg.lr_v_hi = v_hi;
                cfg.validate();
                for (const auto& [name, seq] : inputs) {
                    const std::string context = "n=2^"
                        + std::to_string(log2_n) + " M=" + std::to_string(block)
                        + " v=[" + std::to_string(v_lo) + ","
                        + std::to_string(v_hi) + "] " + name;
                    expect_chunked_spans_match_oracle(cfg, seq, sizes,
                                                      context);

                    hw::testing_block oracle(cfg);
                    oracle.run(seq);
                    hw::testing_block fast(cfg);
                    trng::xoshiro256ss chunk_rng(fixture_seed(71));
                    for (std::size_t pos = 0; pos < seq.size();) {
                        const std::size_t take = std::min<std::size_t>(
                            1 + chunk_rng.next() % 131, seq.size() - pos);
                        const auto chunk = pack_range(seq, pos, take);
                        fast.feed_span(chunk.data(), take);
                        pos += take;
                    }
                    fast.finish();
                    expect_identical_registers(oracle, fast,
                                               context + " ragged chunks");
                    if (::testing::Test::HasFailure()) {
                        return;
                    }
                }
            }
        }
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
// Counter invariants: the checks above hold every finished window to them;
// forging one value per invariant shows that each one fires (the paper's
// Section I-B argument: a forged bus value breaks an identity).
// ---------------------------------------------------------------------------

TEST(kernel_oracle, one_forged_value_trips_each_counter_invariant)
{
    const hw::block_config cfg = paper_design(16, tier::high);
    hw::testing_block block(cfg);
    block.run(random_sequence(fixture_seed(80), cfg.n()));
    const hw::register_map& genuine = block.registers();
    ASSERT_TRUE(test::counter_invariant_violations(cfg, genuine).empty());

    const auto n = static_cast<std::int64_t>(cfg.n());
    const std::int64_t s_final = genuine.read_value("cusum.s_final");
    // N_runs = n stays in range but exceeds 2 min(N_ones, N_zeros) + 1
    // only when the ones and zeros are unbalanced.
    ASSERT_NE(s_final, 0);
    const struct {
        const char* invariant;
        const char* victim;
        std::int64_t forged;
    } cases[] = {
        {"walk extrema sign", "cusum.s_max", -1},
        {"walk final within extrema", "cusum.s_final",
         genuine.read_value("cusum.s_max") + 2},
        {"ones count range", "cusum.s_final", s_final + 1},
        {"runs range", "runs.n_runs", 0},
        {"runs within ones bound", "runs.n_runs", n},
        {"block ones range", "block_frequency.eps[3]",
         (std::int64_t{1} << cfg.bf_log2_m) + 1},
        {"blocks partition the ones", "block_frequency.eps[3]",
         genuine.read_value("block_frequency.eps[3]") + 1},
        {"longest-run categories partition the blocks", "longest_run.nu[2]",
         genuine.read_value("longest_run.nu[2]") + 3},
        {"overlapping categories partition the blocks",
         "overlapping.nu_temp[1]",
         genuine.read_value("overlapping.nu_temp[1]") + 1},
        {"patterns partition n", "serial.nu_m[5]",
         genuine.read_value("serial.nu_m[5]") + 64},
        {"pattern marginal identity", "serial.nu_m1[0]",
         genuine.read_value("serial.nu_m1[0]") + 1},
    };
    for (const auto& c : cases) {
        hw::register_map forged = genuine;
        forged.values()[forged.index_of(c.victim)] =
            static_cast<std::uint64_t>(c.forged);
        const auto violated = test::counter_invariant_violations(cfg, forged);
        EXPECT_NE(std::find(violated.begin(), violated.end(), c.invariant),
                  violated.end())
            << c.invariant << " missed a forged " << c.victim;
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
        void read_registers(std::uint64_t*) const override {}

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
// Monitor end to end: the span lane produces the same window report as
// the per-bit lane for the same packed window.
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
    core::monitor fast(cfg, 0.01);
    const auto b = fast.test_packed(words.data(), words.size(),
                                    core::ingest_lane::span);
    EXPECT_EQ(a.software.all_pass, b.software.all_pass);
    ASSERT_EQ(a.software.verdicts.size(), b.software.verdicts.size());
    for (std::size_t i = 0; i < a.software.verdicts.size(); ++i) {
        EXPECT_EQ(a.software.verdicts[i].pass, b.software.verdicts[i].pass);
        EXPECT_EQ(a.software.verdicts[i].statistic,
                  b.software.verdicts[i].statistic)
            << hw::to_string(a.software.verdicts[i].id);
        EXPECT_EQ(a.software.verdicts[i].bound, b.software.verdicts[i].bound);
    }
    EXPECT_EQ(a.sw_cycles, b.sw_cycles);
}

// ---------------------------------------------------------------------------
// Dispatch: the startup variant follows CPUID, and every variant this host
// can run -- the x86-64-v3 clone included -- yields the per-bit lane's
// window reports over all eight paper designs, in one process.
// ---------------------------------------------------------------------------

/// True when CPUID reports the features the x86-64-v3 clone is compiled
/// for (AVX2, BMI1, BMI2, POPCNT), read here independently of bits::.
bool host_runs_x86_64_v3()
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi")
        && __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("popcnt");
#else
    return false;
#endif
}

/// FNV-1a over 64-bit values.
std::uint64_t fold(std::uint64_t h, std::uint64_t v)
{
    for (int byte = 0; byte < 8; ++byte) {
        h = (h ^ ((v >> (8 * byte)) & 0xffu)) * 0x100000001b3ull;
    }
    return h;
}

/// Digest of two windows per paper design over one fixed-seed stream on
/// `lane`: every verdict (id, pass, statistic, bound), the all-pass flag,
/// the software cycles and every captured register.
std::uint64_t paper_designs_digest(core::ingest_lane lane)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const hw::block_config& cfg : core::all_paper_designs()) {
        trng::ideal_source src(fixture_seed(60));
        core::monitor mon(cfg, 0.01);
        for (int w = 0; w < 2; ++w) {
            const auto words = src.generate_words(cfg.n() / 64);
            const core::window_report r =
                mon.test_packed(words.data(), words.size(), lane);
            for (const core::test_verdict& v : r.software.verdicts) {
                h = fold(h, static_cast<std::uint64_t>(v.id));
                h = fold(h, v.pass ? 1 : 0);
                h = fold(h, static_cast<std::uint64_t>(v.statistic));
                h = fold(h, static_cast<std::uint64_t>(v.bound));
            }
            h = fold(h, r.software.all_pass ? 1 : 0);
            h = fold(h, r.sw_cycles);
            const hw::register_map& regs = mon.block().registers();
            for (std::size_t i = 0; i < regs.size(); ++i) {
                h = fold(h, regs.read_raw(i));
            }
        }
    }
    return h;
}

TEST(kernel_oracle, default_variant_is_simd_exactly_on_an_x86_64_v3_host)
{
    const bool v3 = host_runs_x86_64_v3();
    EXPECT_EQ(bits::simd_supported(), v3);
    EXPECT_EQ(bits::default_kernel_variant(),
              v3 ? bits::kernel_variant::simd
                 : bits::kernel_variant::portable);
    EXPECT_EQ(std::string(bits::kernel_isa(bits::default_kernel_variant()))
                  == "x86-64-v3",
              v3);
}

TEST(kernel_oracle, every_variant_the_host_runs_gives_the_per_bit_digest)
{
    const std::uint64_t oracle =
        paper_designs_digest(core::ingest_lane::per_bit);
    variant_guard guard;
    for (const bits::kernel_variant v : kAllVariants) {
        if (v == bits::kernel_variant::simd && !bits::simd_supported()) {
            continue;
        }
        bits::set_kernel_variant(v);
        ASSERT_EQ(bits::active_kernel_variant(), v);
        EXPECT_EQ(paper_designs_digest(core::ingest_lane::span), oracle)
            << variant_name(v) << " (" << bits::kernel_isa(v) << ")";
    }
    if (!bits::simd_supported()) {
        GTEST_SKIP() << "this host lacks AVX2/BMI1/BMI2/POPCNT: the "
                        "x86-64-v3 clone was not run (reference and "
                        "portable were compared)";
    }
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
                << hw::to_string(a.software.verdicts[i].id) << " window "
                << w;
        }
        EXPECT_EQ(a.sw_cycles, b.sw_cycles);
    }
}

} // namespace
