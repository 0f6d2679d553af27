// Plain-text report formatting for monitors, design points and benches.
#pragma once

#include "core/fleet_monitor.hpp"
#include "core/monitor.hpp"
#include "hw/testing_block.hpp"
#include "rtl/resources.hpp"

#include <string>

namespace otf::core {

/// \brief One line per verdict: test name, pass/fail, statistic vs bound.
std::string format_verdicts(const software_result& result);

/// \brief Multi-line window summary (verdicts + latency accounting).
std::string format_window(const window_report& report);

/// \brief Multi-line fleet summary: one row per channel (windows,
/// failures, alarm, escalations, failing tests) plus the fleet totals.
std::string format_fleet(const fleet_report& report);

/// \brief Area/frequency summary of a testing block in Table III layout:
/// slices / FF / LUT / MaxFreq and the ASIC gate-equivalents.
std::string format_area(const hw::testing_block& block);

} // namespace otf::core
