#include "nist/battery.hpp"

#include "nist/extended_tests.hpp"
#include "nist/tests.hpp"

#include <array>
#include <cmath>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string_view>

namespace otf::nist {

namespace {

/// The names of one test's entries: the registry name for sub 0, and
/// for a test with sub-entries a prefix its sub-index completes -- by
/// label ("cusum " + "forward") or by number ("serial P" + "1").
struct test_names {
    std::string_view test;
    std::string_view prefix = {};
    int lo = 0; ///< sub-entry range [lo, hi], 0 excluded
    int hi = 0;
    std::array<std::string_view, 2> labels = {}; ///< of subs 1 and 2
};

/// Indexed by NIST test number - 1.
constexpr test_names names[] = {
    {"frequency"},
    {"block frequency"},
    {"runs"},
    {"longest run"},
    {"matrix rank"},
    {"spectral (DFT)"},
    {"non-overlapping template"},
    {"overlapping template"},
    {"universal"},
    {"linear complexity"},
    {"serial", "serial P", 1, 2},
    {"approximate entropy"},
    {"cumulative sums", "cusum ", 1, 2, {"forward", "backward"}},
    {"random excursions", "excursions x=", -4, 4},
    {"random excursions variant", "excursions variant x=", -9, 9},
};

void add(battery_report& report, unsigned number, int sub, double p,
         double alpha, bool applicable = true)
{
    battery_entry& e = report.entries.emplace_back();
    e.test_number = number;
    e.sub = sub;
    e.p_value = p;
    e.applicable = applicable;
    e.pass = applicable && p >= alpha;
    if (!applicable) {
        ++report.skipped;
    } else if (e.pass) {
        ++report.passed;
    } else {
        ++report.failed;
    }
}

std::vector<battery_test> build_registry()
{
    std::vector<battery_test> tests;

    tests.push_back({1, names[0].test, 1,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 1, 0, frequency_test(seq).p_value,
                             alpha);
                     }});

    tests.push_back({2, names[1].test, 20,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         // M ~ n/64 but at least 20 (SP 800-22
                         // recommendation M > 0.01 n, N < 100); the
                         // minimum length is one such block.
                         const unsigned m = static_cast<unsigned>(
                             std::max<std::size_t>(20, seq.size() / 64));
                         add(out, 2, 0,
                             block_frequency_test(seq, m).p_value, alpha);
                     }});

    tests.push_back({3, names[2].test, 2,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 3, 0, runs_test(seq).p_value, alpha);
                     }});

    tests.push_back({4, names[3].test, 128,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const std::size_t n = seq.size();
                         const unsigned m = (n >= 750000)
                             ? 10000
                             : (n >= 6272 ? 128 : 8);
                         add(out, 4, 0,
                             longest_run_test(seq, m).p_value, alpha);
                     }});

    tests.push_back({5, names[4].test, 32 * 32 * 4,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 5, 0, matrix_rank_test(seq).p_value,
                             alpha);
                     }});

    tests.push_back({6, names[5].test, 2,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 6, 0, dft_test(seq).p_value, alpha);
                     }});

    tests.push_back({7, names[6].test, 8 * 512,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const unsigned blocks = 8;
                         add(out, 7, 0,
                             non_overlapping_template_test(
                                 seq, 0b000000001u, 9, blocks)
                                 .p_value,
                             alpha);
                     }});

    tests.push_back({8, names[7].test, 1024 * 16,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 8, 0,
                             overlapping_template_test(seq, 9, 1024, 5)
                                 .p_value,
                             alpha);
                     }});

    // Enough for L >= 5 with Q + K blocks.
    tests.push_back({9, names[8].test, 10 * (std::size_t{1} << 6) * 7,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 9, 0, universal_test(seq).p_value,
                             alpha);
                     }});

    tests.push_back({10, names[9].test, 500 * 8,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 10, 0,
                             linear_complexity_test(seq, 500).p_value,
                             alpha);
                     }});

    tests.push_back({11, names[10].test, 3,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const unsigned m = (seq.size() >= 1024) ? 4 : 3;
                         const auto r = serial_test(seq, m);
                         add(out, 11, 1, r.p_value1, alpha);
                         add(out, 11, 2, r.p_value2, alpha);
                     }});

    tests.push_back({12, names[11].test, 3,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const unsigned m = (seq.size() >= 1024) ? 3 : 2;
                         add(out, 12, 0,
                             approximate_entropy_test(seq, m).p_value,
                             alpha);
                     }});

    tests.push_back({13, names[12].test, 1,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const auto r = cumulative_sums_test(seq);
                         add(out, 13, 1, r.p_forward, alpha);
                         add(out, 13, 2, r.p_backward, alpha);
                     }});

    tests.push_back({14, names[13].test, 1,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const auto r = random_excursions_test(seq);
                         for (std::size_t i = 0; i < r.states.size();
                              ++i) {
                             add(out, 14, r.states[i], r.p_values[i],
                                 alpha, r.applicable);
                         }
                     }});

    tests.push_back({15, names[14].test, 1,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const auto r =
                             random_excursions_variant_test(seq);
                         for (std::size_t i = 0; i < r.states.size();
                              ++i) {
                             add(out, 15, r.states[i], r.p_values[i],
                                 alpha, r.applicable);
                         }
                     }});

    return tests;
}

} // namespace

bool is_entry_id(unsigned test_number, int sub)
{
    if (test_number < 1 || test_number > std::size(names)) {
        return false;
    }
    const test_names& t = names[test_number - 1];
    return sub == 0 || (sub >= t.lo && sub <= t.hi);
}

std::string entry_name(unsigned test_number, int sub)
{
    if (!is_entry_id(test_number, sub)) {
        throw std::invalid_argument(
            "entry_name: no battery entry (test " + std::to_string(test_number)
            + ", sub " + std::to_string(sub) + ")");
    }
    const test_names& t = names[test_number - 1];
    if (sub == 0) {
        return std::string(t.test);
    }
    std::string name(t.prefix);
    if (t.labels[0].empty()) {
        name += std::to_string(sub);
    } else {
        name += t.labels[static_cast<std::size_t>(sub - 1)];
    }
    return name;
}

const std::vector<battery_test>& battery_tests()
{
    static const std::vector<battery_test> registry = build_registry();
    return registry;
}

battery_selection battery_selection::all()
{
    battery_selection s;
    for (const battery_test& t : battery_tests()) {
        s.with(t.number);
    }
    return s;
}

battery_selection& battery_selection::with(unsigned test_number)
{
    if (test_number < 1 || test_number > 15) {
        throw std::invalid_argument(
            "battery_selection: NIST test numbers are 1..15, got "
            + std::to_string(test_number));
    }
    mask_ |= 1u << test_number;
    return *this;
}

unsigned battery_selection::count() const
{
    unsigned n = 0;
    for (unsigned t = 1; t <= 15; ++t) {
        n += has(t) ? 1 : 0;
    }
    return n;
}

battery_report run_battery(const bit_sequence& seq, double alpha,
                           const battery_selection& select)
{
    if (select.empty()) {
        throw std::invalid_argument(
            "run_battery: empty test selection");
    }
    battery_report report;
    // One entry per test, two for serial and cusum: the excursion tests'
    // 26 only come with ~500 zero crossings.
    report.entries.reserve(select.count() + 2);
    // Tests 14 and 15 share one applicability rule, counted once.
    std::optional<bool> excursions_apply;
    const auto applies = [&](const battery_test& t) {
        if (seq.size() < t.min_length) {
            return false;
        }
        if (t.number != 14 && t.number != 15) {
            return true;
        }
        if (!excursions_apply) {
            excursions_apply = excursion_gate(seq).applicable;
        }
        return *excursions_apply;
    };
    for (const battery_test& t : battery_tests()) {
        if (!select.has(t.number)) {
            continue;
        }
        if (!applies(t)) {
            // A test that cannot apply records one skip instead of being
            // silently dropped, so subset callers can tell "not selected"
            // from "not applicable".
            add(report, t.number, 0, 0.0, alpha, false);
            continue;
        }
        t.run(seq, alpha, report);
    }
    return report;
}

battery_report run_battery(const bit_sequence& seq, double alpha)
{
    return run_battery(seq, alpha, battery_selection::all());
}

void write_battery(json_writer& json, std::string_view key,
                   const battery_report& report)
{
    json.begin_object(key);
    json.value("passed", report.passed);
    json.value("failed", report.failed);
    json.value("skipped", report.skipped);
    json.value("all_pass", report.all_pass());
    json.begin_array("entries");
    for (const battery_entry& e : report.entries) {
        json.begin_object();
        json.value("test", e.test_number);
        json.value("name", entry_name(e));
        json.value("p_value", e.p_value);
        json.value("applicable", e.applicable);
        json.value("pass", e.pass);
        json.end_object();
    }
    json.end_array();
    json.end_object();
}

} // namespace otf::nist
