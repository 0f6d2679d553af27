// Oracle tests of the generation side: every adversarial source model
// has one generator, next_word(), and the base class derives both the
// per-bit and the word lane from it.  These tests pin that stream -- a
// digest per model, stack and device kind across ragged batch sizes,
// severity changes and interleaved per-bit drains -- and check the word
// lane against the per-bit lane, including the device_source wrapper's
// onset/churn boundaries.  The kernel-side twin of this file is
// test_kernel_oracle.cpp (SIMD vs scalar consumers); this one pins the
// producer side.
#include "trng/device_profile.hpp"
#include "trng/source_model.hpp"
#include "trng/sources.hpp"

#include "support/fixed_seed.hpp"

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace otf;
using namespace otf::trng;
using test::fixture_seed;

using model_builder =
    std::function<std::unique_ptr<source_model>(std::uint64_t seed)>;

std::unique_ptr<entropy_source> healthy(std::uint64_t seed)
{
    return std::make_unique<ideal_source>(seed);
}

/// Every model plus stacked decorator pairs, built over an ideal inner.
std::vector<std::pair<std::string, model_builder>> all_models()
{
    return {
        {"rtn",
         [](std::uint64_t s) {
             return std::make_unique<rtn_source>(healthy(s), s + 1);
         }},
        {"rtn long-dwell",
         [](std::uint64_t s) {
             rtn_parameters p;
             p.dwell_on = 8192.0;
             return std::make_unique<rtn_source>(healthy(s), s + 1, p);
         }},
        {"bias-drift",
         [](std::uint64_t s) {
             return std::make_unique<bias_drift_source>(healthy(s), s + 1);
         }},
        {"bias-drift pinned",
         [](std::uint64_t s) {
             // Pins the walk at the half-rail steady state (q = 128),
             // the single-draw fast path in next_words.
             bias_drift_parameters p;
             p.p_out = 1.0;
             p.p_back = 0.0;
             p.max_shift_q = 128;
             return std::make_unique<bias_drift_source>(healthy(s), s + 1,
                                                        p);
         }},
        {"lockin",
         [](std::uint64_t s) {
             return std::make_unique<lockin_source>(healthy(s), s + 1);
         }},
        {"fault",
         [](std::uint64_t s) {
             return std::make_unique<fault_source>(healthy(s), s + 1);
         }},
        {"sram-collapse",
         [](std::uint64_t s) {
             return std::make_unique<entropy_collapse_source>(healthy(s),
                                                              s + 1);
         }},
        {"substitution",
         [](std::uint64_t s) {
             return std::make_unique<substitution_source>(healthy(s),
                                                          s + 1);
         }},
        {"stacked bias-drift<rtn>",
         [](std::uint64_t s) {
             return std::make_unique<bias_drift_source>(
                 std::make_unique<rtn_source>(healthy(s), s + 1), s + 2);
         }},
        {"stacked rtn<sram-collapse>",
         [](std::uint64_t s) {
             return std::make_unique<rtn_source>(
                 std::make_unique<entropy_collapse_source>(healthy(s),
                                                           s + 1),
                 s + 2);
         }},
    };
}

/// Ragged batch lengths: single words, odd counts, and batches around
/// and past 64 words that span several RTN dwells and fingerprint or
/// replay periods.
constexpr std::size_t kRaggedSizes[] = {1,  2,  3,  5,   7,  13,
                                        31, 64, 65, 100, 131};

/// Order-sensitive 64-bit digest of a word stream.
class stream_digest {
public:
    void add(std::uint64_t w)
    {
        h_ = (h_ ^ w) * 0x100000001b3ULL;
        h_ ^= h_ >> 29;
    }
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Drive `src` through ragged fill_words() batches with next_bit() drains
/// of 0..130 bits between them (so every batch after a drain runs the
/// partial-word splice), calling `between(step)` before each batch, and
/// digest everything it produced.
template <typename Source, typename Between>
std::uint64_t drive_digest(Source& src, Between between)
{
    constexpr std::size_t kBitDrains[] = {0, 1, 7, 0, 63, 64, 130};
    stream_digest d;
    std::size_t step = 0;
    for (int round = 0; round < 12; ++round) {
        for (const std::size_t n : kRaggedSizes) {
            between(step);
            std::vector<std::uint64_t> words(n, 0);
            src.fill_words(words.data(), n);
            for (const std::uint64_t w : words) {
                d.add(w);
            }
            const std::size_t drain =
                kBitDrains[step % std::size(kBitDrains)];
            std::uint64_t packed = 0;
            for (std::size_t i = 0; i < drain; ++i) {
                packed |= static_cast<std::uint64_t>(src.next_bit())
                    << (i % 64);
                if (i % 64 == 63 || i + 1 == drain) {
                    d.add(packed);
                    packed = 0;
                }
            }
            ++step;
        }
    }
    return d.value();
}

device_profile boundary_profile(device_kind kind)
{
    device_profile p;
    p.device = 7;
    p.kind = kind;
    p.seed = fixture_seed(64) + static_cast<std::uint64_t>(kind);
    p.peak_severity = 1.0;
    p.onset_window = 2;
    p.churns = kind == device_kind::healthy;
    p.churn_window = 3;
    p.churn_p_one = 0.48;
    p.rtn_duty = 0.4;
    p.collapse_fraction = 0.75;
    return p;
}

/// Stream digests of drive_digest().  Any change to a model's output --
/// draw order, splice, severity timing, device transitions -- moves its
/// digest; re-pin only for an intended change of stream.
const std::map<std::string, std::uint64_t>& pinned_digests()
{
    static const std::map<std::string, std::uint64_t> digests = {
        {"rtn", 0x1de169afce03209eULL},
        {"rtn long-dwell", 0x4b0917f67423f844ULL},
        {"bias-drift", 0x5f478a95e11bccccULL},
        {"bias-drift pinned", 0x4cd7d3fef34b4766ULL},
        {"lockin", 0xe587dee15c996a0cULL},
        {"fault", 0x3929c920fe4312bcULL},
        {"sram-collapse", 0xa3f00522e1caba0dULL},
        {"substitution", 0xb1f439ceaf9916c3ULL},
        {"stacked bias-drift<rtn>", 0xea4919ab6ea7b4bbULL},
        {"stacked rtn<sram-collapse>", 0xa1d60cb295de06cfULL},
        {"device:healthy", 0x82aa3915c3b121afULL},
        {"device:rtn", 0x89dd268e8c35b603ULL},
        {"device:bias-drift", 0xb5835c074c1b6878ULL},
        {"device:lock-in", 0x1b83a51e6f67fe1aULL},
        {"device:fault", 0x9ad26b90b403ad6cULL},
        {"device:entropy-collapse", 0x1ee65d176e3c6016ULL},
        {"device:substitution", 0x2638dbc73377ca78ULL},
    };
    return digests;
}

std::string hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llxULL",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(generation_oracle, stream_digests_match_pinned_values)
{
    // Models: a severity flip every third batch, so flips land at every
    // splice phase the bit drains leave behind.
    const double severities[] = {0.25, 0.0, 0.5, 1.0};
    std::map<std::string, std::uint64_t> got;
    for (const auto& [name, build] : all_models()) {
        auto model = build(fixture_seed(60));
        got[name] = drive_digest(*model, [&](std::size_t step) {
            if (step % 3 == 0) {
                model->set_severity(severities[(step / 3) % 4]);
            }
        });
    }
    // Devices: the onset (severity 0 -> peak) and churn transitions are
    // the flips; 4-word windows put them inside the ragged batches.
    const std::uint64_t window_bits = 256;
    for (std::size_t k = 0; k < device_kind_count; ++k) {
        const auto kind = static_cast<device_kind>(k);
        device_source device(boundary_profile(kind), window_bits);
        got[device.name()] = drive_digest(device, [](std::size_t) {});
    }
    const auto& want = pinned_digests();
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [name, digest] : got) {
        const auto it = want.find(name);
        ASSERT_NE(it, want.end()) << name;
        EXPECT_EQ(hex(digest), hex(it->second)) << name;
    }
}

TEST(generation_oracle, interleaved_bit_and_word_drains_agree)
{
    // Alternating per-bit pulls with batched fills exercises the
    // partial-word splice on both sides of every batch.
    for (const auto& [name, build] : all_models()) {
        auto mixed = build(fixture_seed(62));
        auto oracle = build(fixture_seed(62));
        const std::size_t chunks[] = {3, 64, 1, 128, 61, 192, 7, 320};
        for (const std::size_t bits : chunks) {
            if (bits % 64 == 0) {
                const std::size_t n = bits / 64;
                std::vector<std::uint64_t> got(n, 0);
                mixed->fill_words(got.data(), n);
                for (std::size_t j = 0; j < n; ++j) {
                    std::uint64_t want = 0;
                    for (unsigned b = 0; b < 64; ++b) {
                        want |=
                            static_cast<std::uint64_t>(oracle->next_bit())
                            << b;
                    }
                    ASSERT_EQ(got[j], want)
                        << name << " chunk " << bits << " word " << j;
                }
            } else {
                for (std::size_t i = 0; i < bits; ++i) {
                    ASSERT_EQ(mixed->next_bit(), oracle->next_bit())
                        << name << " chunk " << bits << " bit " << i;
                }
            }
        }
    }
}

TEST(generation_oracle, biased_source_batch_matches_per_bit)
{
    // The biased healthy source overrides fill_words with a batched
    // draw loop; its oracle is the per-bit lane of an identical twin.
    biased_source batched(fixture_seed(63), 0.3);
    biased_source oracle(fixture_seed(63), 0.3);
    for (const std::size_t n : kRaggedSizes) {
        std::vector<std::uint64_t> got(n, 0);
        batched.fill_words(got.data(), n);
        for (std::size_t j = 0; j < n; ++j) {
            std::uint64_t want = 0;
            for (unsigned b = 0; b < 64; ++b) {
                want |= static_cast<std::uint64_t>(oracle.next_bit()) << b;
            }
            ASSERT_EQ(got[j], want) << "n=" << n << " word " << j;
        }
    }
}

TEST(generation_oracle, device_source_batches_across_onset_and_churn)
{
    // Multi-word fill_words must stay bit-exact with the per-bit lane
    // even when a batch straddles the device's onset or churn word -- the
    // scheduled transitions must land on their word, not shift.
    const std::uint64_t window_bits = 256; // 4 words: boundaries land
                                           // inside the ragged batches
    for (std::size_t k = 0; k < device_kind_count; ++k) {
        const auto kind = static_cast<device_kind>(k);
        device_source batched(boundary_profile(kind), window_bits);
        device_source oracle(boundary_profile(kind), window_bits);
        for (int round = 0; round < 10; ++round) {
            for (const std::size_t n : kRaggedSizes) {
                std::vector<std::uint64_t> got(n, 0);
                batched.fill_words(got.data(), n);
                for (std::size_t j = 0; j < n; ++j) {
                    std::uint64_t want = 0;
                    for (unsigned b = 0; b < 64; ++b) {
                        want |=
                            static_cast<std::uint64_t>(oracle.next_bit())
                            << b;
                    }
                    ASSERT_EQ(got[j], want)
                        << to_string(kind) << " round " << round
                        << " n=" << n << " word " << j;
                }
            }
        }
    }
}

} // namespace
