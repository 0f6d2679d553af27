#include "nist/battery.hpp"

#include "nist/extended_tests.hpp"
#include "nist/tests.hpp"

#include <cmath>
#include <stdexcept>

namespace otf::nist {

namespace {

void add(battery_report& report, unsigned number, std::string name,
         double p, double alpha, bool applicable = true)
{
    battery_entry e;
    e.test_number = number;
    e.name = std::move(name);
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
    report.entries.push_back(std::move(e));
}

std::vector<battery_test> build_registry()
{
    std::vector<battery_test> tests;

    tests.push_back({1, "frequency", 1,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 1, "frequency",
                             frequency_test(seq).p_value, alpha);
                     }});

    tests.push_back({2, "block frequency", 20,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         // M ~ n/64 but at least 20 (SP 800-22
                         // recommendation M > 0.01 n, N < 100); the
                         // minimum length is one such block.
                         const unsigned m = static_cast<unsigned>(
                             std::max<std::size_t>(20, seq.size() / 64));
                         add(out, 2, "block frequency",
                             block_frequency_test(seq, m).p_value, alpha);
                     }});

    tests.push_back({3, "runs", 2,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 3, "runs", runs_test(seq).p_value,
                             alpha, true);
                     }});

    tests.push_back({4, "longest run", 128,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const std::size_t n = seq.size();
                         const unsigned m = (n >= 750000)
                             ? 10000
                             : (n >= 6272 ? 128 : 8);
                         add(out, 4, "longest run",
                             longest_run_test(seq, m).p_value, alpha);
                     }});

    tests.push_back({5, "matrix rank", 32 * 32 * 4,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 5, "matrix rank",
                             matrix_rank_test(seq).p_value, alpha);
                     }});

    tests.push_back({6, "spectral (DFT)", 2,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 6, "spectral (DFT)",
                             dft_test(seq).p_value, alpha);
                     }});

    tests.push_back({7, "non-overlapping template", 8 * 512,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const unsigned blocks = 8;
                         add(out, 7, "non-overlapping template",
                             non_overlapping_template_test(
                                 seq, 0b000000001u, 9, blocks)
                                 .p_value,
                             alpha);
                     }});

    tests.push_back({8, "overlapping template", 1024 * 16,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 8, "overlapping template",
                             overlapping_template_test(seq, 9, 1024, 5)
                                 .p_value,
                             alpha);
                     }});

    // Enough for L >= 5 with Q + K blocks.
    tests.push_back({9, "universal", 10 * (std::size_t{1} << 6) * 7,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 9, "universal",
                             universal_test(seq).p_value, alpha);
                     }});

    tests.push_back({10, "linear complexity", 500 * 8,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         add(out, 10, "linear complexity",
                             linear_complexity_test(seq, 500).p_value,
                             alpha);
                     }});

    tests.push_back({11, "serial", 3,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const unsigned m = (seq.size() >= 1024) ? 4 : 3;
                         const auto r = serial_test(seq, m);
                         add(out, 11, "serial P1", r.p_value1, alpha);
                         add(out, 11, "serial P2", r.p_value2, alpha);
                     }});

    tests.push_back({12, "approximate entropy", 3,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const unsigned m = (seq.size() >= 1024) ? 3 : 2;
                         add(out, 12, "approximate entropy",
                             approximate_entropy_test(seq, m).p_value,
                             alpha);
                     }});

    tests.push_back({13, "cumulative sums", 1,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const auto r = cumulative_sums_test(seq);
                         add(out, 13, "cusum forward", r.p_forward,
                             alpha);
                         add(out, 13, "cusum backward", r.p_backward,
                             alpha);
                     }});

    tests.push_back({14, "random excursions", 1,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const auto r = random_excursions_test(seq);
                         for (std::size_t i = 0; i < r.states.size();
                              ++i) {
                             add(out, 14,
                                 "excursions x="
                                     + std::to_string(r.states[i]),
                                 r.p_values[i], alpha, r.applicable);
                         }
                     }});

    tests.push_back({15, "random excursions variant", 1,
                     [](const bit_sequence& seq, double alpha,
                        battery_report& out) {
                         const auto r =
                             random_excursions_variant_test(seq);
                         for (std::size_t i = 0; i < r.states.size();
                              ++i) {
                             add(out, 15,
                                 "excursions variant x="
                                     + std::to_string(r.states[i]),
                                 r.p_values[i], alpha, r.applicable);
                         }
                     }});

    return tests;
}

} // namespace

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
    for (const battery_test& t : battery_tests()) {
        if (!select.has(t.number)) {
            continue;
        }
        if (seq.size() < t.min_length) {
            // Below the minimum-length recommendation: record the skip
            // instead of silently dropping the test, so subset callers
            // can tell "not selected" from "not applicable".
            add(report, t.number, t.name, 0.0, alpha, false);
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
        json.value("name", e.name);
        json.value("p_value", e.p_value);
        json.value("applicable", e.applicable);
        json.value("pass", e.pass);
        json.end_object();
    }
    json.end_array();
    json.end_object();
}

} // namespace otf::nist
