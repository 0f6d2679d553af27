#include "core/report.hpp"

#include <iomanip>
#include <sstream>

namespace otf::core {

std::string format_verdicts(const software_result& result)
{
    std::ostringstream out;
    for (const test_verdict& v : result.verdicts) {
        out << "  " << std::left << std::setw(26) << hw::to_string(v.id)
            << (v.pass ? "pass" : "FAIL") << "  statistic=" << v.statistic
            << " bound=" << v.bound << '\n';
    }
    return out.str();
}

std::string format_window(const window_report& report)
{
    std::ostringstream out;
    out << "window " << report.window_index
        << (report.software.all_pass ? ": healthy" : ": FAILURE DETECTED")
        << '\n';
    out << format_verdicts(report.software);
    out << "  sw latency: " << report.sw_cycles << " cycles ("
        << sw16::to_string(report.software.total_ops) << ")\n";
    out << "  generation time: " << report.generation_cycles
        << " cycles -> testing fits "
        << (report.sw_cycles < report.generation_cycles ? "inside"
                                                        : "OUTSIDE")
        << " the window budget\n";
    return out.str();
}

std::string format_fleet(const fleet_report& report)
{
    std::ostringstream out;
    out << std::left << std::setw(8) << "channel" << std::setw(16)
        << "source" << std::setw(8) << "windows" << std::setw(9)
        << "failures" << std::setw(8) << "alarm" << std::setw(18)
        << "escalations" << "  failing tests\n";
    for (const channel_report& ch : report.channels) {
        std::string tests;
        for (const auto& [name, count] : ch.failures_by_test) {
            tests += (tests.empty() ? "" : ", ") + name + " x"
                + std::to_string(count);
        }
        std::string escalations = "-";
        if (ch.escalations > 0) {
            escalations = std::to_string(ch.escalations) + " ("
                + std::to_string(ch.confirmed_escalations)
                + " confirmed)";
        }
        out << std::left << std::setw(8) << ch.channel << std::setw(16)
            << ch.source_name << std::setw(8) << ch.windows
            << std::setw(9) << ch.failures << std::setw(8)
            << (ch.alarm ? "RAISED" : "-") << std::setw(18)
            << escalations << "  " << tests << '\n';
    }
    out << "fleet totals: " << report.windows << " windows, "
        << report.bits << " bits, " << report.channels_in_alarm
        << " channel(s) in alarm";
    if (report.channels_escalated > 0) {
        out << ", " << report.escalations << " escalation(s) across "
            << report.channels_escalated << " channel(s)";
    }
    out << '\n';
    return out.str();
}

std::string format_area(const hw::testing_block& block)
{
    const rtl::resources r = block.cost();
    const rtl::fpga_report fpga = rtl::estimate_spartan6(r);
    const rtl::asic_report asic = rtl::estimate_umc130(r);
    std::ostringstream out;
    out << block.config().name << ": " << fpga.slices << " slices, "
        << fpga.ffs << " FF, " << fpga.luts << " LUT, " << std::fixed
        << std::setprecision(0) << fpga.max_freq_mhz << " MHz, "
        << asic.gate_equivalents << " GE";
    return out.str();
}

} // namespace otf::core
