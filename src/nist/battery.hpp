// Composable runner for the full 15-test SP 800-22 battery.
//
// This is the *offline* evaluation flow the on-the-fly platform
// complements: run statistical tests on a recorded sequence and collect
// machine-readable per-test results.  The battery is a registry of
// individually invokable tests (`battery_tests()`), so callers can run the
// whole suite, or a subset -- the escalation supervisor
// (core/supervisor.hpp) replays captured evidence through exactly the
// tests it wants for offline confirmation, and the examples/benches keep
// their one-call full pass.  Parameterization follows the NIST defaults
// scaled to the sequence length.
#pragma once

#include "base/bits.hpp"
#include "base/json.hpp"

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace otf::nist {

/// \brief One P-value of the battery, named by id: a NIST test number
/// plus a sub-index.  The sub-index is 1/2 for serial P1/P2 and for the
/// cusum forward/backward directions, the state x for the excursion
/// tests, and 0 for a test as a whole (one-P-value tests and skips).
/// entry_name() formats the id.
struct battery_entry {
    unsigned test_number = 0; ///< NIST numbering 1..15
    int sub = 0;              ///< sub-index (see above)
    double p_value = 0.0;
    bool applicable = false;  ///< false when prerequisites fail
    bool pass = false;        ///< p >= alpha (and applicable)

    /// Bitwise P-value equality -- what "deterministic replay" means for
    /// the offline battery (tools/otf_replay re-derives these exactly).
    friend bool operator==(const battery_entry&,
                           const battery_entry&) = default;
};

struct battery_report {
    std::vector<battery_entry> entries;
    unsigned passed = 0;
    unsigned failed = 0;
    unsigned skipped = 0;   ///< not applicable at this length

    bool all_pass() const { return failed == 0; }

    friend bool operator==(const battery_report&,
                           const battery_report&) = default;
};

/// \brief The name of entry (`test_number`, `sub`): the registry name
/// for sub 0, else the sub-entry's, e.g. "serial P2", "cusum forward",
/// "excursions x=-1", "excursions variant x=9".
/// \throws std::invalid_argument when is_entry_id() refuses the pair
std::string entry_name(unsigned test_number, int sub);
inline std::string entry_name(const battery_entry& e)
{
    return entry_name(e.test_number, e.sub);
}

/// Whether (`test_number`, `sub`) names an entry the battery can emit.
bool is_entry_id(unsigned test_number, int sub);

/// \brief One composable offline test.  `run` appends one battery_entry
/// per P-value (several tests emit more than one: serial, cusum, the
/// excursion families) and maintains the report's pass/fail/skip tallies.
struct battery_test {
    unsigned number = 0;        ///< NIST numbering 1..15
    std::string_view name;      ///< registry name, e.g. "linear complexity"
    std::size_t min_length = 0; ///< shortest sequence the test accepts
    std::function<void(const bit_sequence& seq, double alpha,
                       battery_report& out)>
        run;
};

/// \brief The full SP 800-22 registry in NIST order (one entry per test
/// number; built once, shared).
const std::vector<battery_test>& battery_tests();

/// \brief Subset selection over the registry, by NIST test number.
class battery_selection {
public:
    /// Every registered test.
    static battery_selection all();

    /// \brief Add one test by NIST number.
    /// \throws std::invalid_argument outside 1..15
    battery_selection& with(unsigned test_number);

    bool has(unsigned test_number) const
    {
        return test_number >= 1 && test_number <= 15
            && (mask_ & (1u << test_number)) != 0;
    }
    bool empty() const { return mask_ == 0; }
    unsigned count() const;

private:
    std::uint32_t mask_ = 0;
};

/// \brief Run the selected tests on `seq`.  A test that cannot apply
/// records one skip (sub 0, applicable = false) rather than being
/// silently dropped, whichever gate stopped it: the minimum-length
/// recommendation, or for the two excursion tests fewer zero-crossing
/// cycles than excursion_gate() requires.  `alpha` is the per-test
/// significance level.
/// \throws std::invalid_argument on an empty selection
battery_report run_battery(const bit_sequence& seq, double alpha,
                           const battery_selection& select);

/// Run every registered test (the classic one-call full pass).
battery_report run_battery(const bit_sequence& seq, double alpha);

/// \brief Serialize a report's machine-readable per-test results as a
/// JSON object under `key` ("" at the root / inside an array).  Each
/// entry carries its test number and its entry_name() as "name".
void write_battery(json_writer& json, std::string_view key,
                   const battery_report& report);

} // namespace otf::nist
