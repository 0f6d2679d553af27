#include "core/population.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

namespace otf::core {

namespace {

std::string format_line(const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

std::string format_line(const char* fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    return buf;
}

} // namespace

void population_config::validate() const
{
    if (devices == 0) {
        throw std::invalid_argument(
            "population_config: need at least 1 device");
    }
    if (shards == 0) {
        throw std::invalid_argument(
            "population_config: need at least 1 shard");
    }
    if (shards > devices) {
        throw std::invalid_argument(
            "population_config: more shards (" + std::to_string(shards)
            + ") than devices (" + std::to_string(devices) + ")");
    }
    if (windows_per_device == 0) {
        throw std::invalid_argument(
            "population_config: need at least 1 window per device");
    }
    if (block.n() < 64 || block.n() % 64 != 0) {
        throw std::invalid_argument(
            "population_config: per-device variation schedules attack "
            "onset on word boundaries; the window length must be a "
            "multiple of 64 bits");
    }
    if (!(device_bits_per_second > 0.0)) {
        throw std::invalid_argument(
            "population_config: device_bits_per_second must be positive");
    }
    profile.validate();
    // The per-shard fleet config is the authoritative check for the
    // design point, alarm policy and supervision knobs.
    fleet_config shard = shard_fleet_config();
    shard.channels = 1;
    shard.validate();
}

fleet_config population_config::shard_fleet_config() const
{
    fleet_config fc;
    fc.block = block;
    fc.escalated_block = escalated_block;
    fc.alpha = alpha;
    fc.fail_threshold = fail_threshold;
    fc.policy_window = policy_window;
    fc.evidence_windows = evidence_windows;
    fc.dwell_windows = dwell_windows;
    fc.offline_alpha = offline_alpha;
    fc.offline_min_failures = offline_min_failures;
    fc.lane = lane;
    return fc;
}

std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                           double q)
{
    if (sorted.empty()) {
        return 0;
    }
    if (!(q > 0.0 && q <= 1.0)) {
        throw std::invalid_argument(
            "nearest_rank: quantile must be in (0, 1]");
    }
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
}

bool population_report::same_counters(const population_report& other) const
{
    return devices == other.devices
        && windows == other.windows && failures == other.failures
        && bits == other.bits && devices_attacked == other.devices_attacked
        && devices_healthy == other.devices_healthy
        && devices_churned == other.devices_churned
        && devices_alarmed == other.devices_alarmed
        && healthy_alarms == other.healthy_alarms
        && attacked_alarmed == other.attacked_alarmed
        && detected == other.detected
        && healthy_windows == other.healthy_windows
        && escalations == other.escalations
        && channels_escalated == other.channels_escalated
        && confirmed_escalations == other.confirmed_escalations
        && by_kind == other.by_kind && alarm_latency == other.alarm_latency
        && false_alarm_rate_per_window == other.false_alarm_rate_per_window
        && false_escalations_per_device_day
        == other.false_escalations_per_device_day
        && failures_by_test == other.failures_by_test
        && device_records == other.device_records;
}

population_monitor::population_monitor(population_config cfg)
    : cfg_((cfg.validate(), std::move(cfg))),
      cv_(compute_critical_values(cfg_.block, cfg_.alpha))
{
    if (cfg_.escalated_block) {
        cv_escalated_ =
            compute_critical_values(*cfg_.escalated_block, cfg_.alpha);
    }
}

namespace {

/// One worker's share of the aggregate: folded device by device on the
/// worker, merged in worker order after the join.  Every field is an
/// integer sum (or a latency sample sorted before the percentile cut), so
/// the order in which workers claim units cannot reach the report.
struct worker_partial {
    explicit worker_partial(unsigned shards) : shards(shards) {}

    std::vector<population_shard_report> shards;
    std::array<kind_summary, trng::device_kind_count> by_kind{};
    std::uint32_t churned = 0; ///< healthy devices that churned
    std::uint64_t healthy_windows = 0;
    std::vector<std::uint64_t> latencies;
    hw::test_tally failures_by_test;

    void fold(const device_record& rec, const hw::test_tally& fails)
    {
        population_shard_report& sr = shards[rec.shard];
        sr.windows += rec.windows;
        sr.failures += rec.failures;
        sr.bits += rec.bits;
        sr.channels_in_alarm += rec.alarm ? 1 : 0;
        sr.escalations += rec.escalations;
        sr.channels_escalated += rec.escalations > 0 ? 1 : 0;
        sr.confirmed_escalations += rec.confirmed_escalations;
        kind_summary& kind = by_kind[static_cast<std::size_t>(rec.kind)];
        ++kind.devices;
        kind.alarmed += rec.alarm ? 1 : 0;
        if (rec.detected()) {
            ++kind.detected;
            latencies.push_back(rec.detection_latency());
        }
        if (!rec.attacked) {
            healthy_windows += rec.windows;
            churned += rec.churned ? 1 : 0;
        }
        failures_by_test += fails;
    }
};

} // namespace

population_report population_monitor::run()
{
    const auto start = std::chrono::steady_clock::now();

    // Profiles are pure functions of (master_seed, device): sampling them
    // up front is equivalent to sampling inside any worker, so neither
    // the shard layout nor the claim order can leak into the population.
    std::vector<trng::device_profile> profiles;
    profiles.reserve(cfg_.devices);
    for (std::uint32_t d = 0; d < cfg_.devices; ++d) {
        profiles.push_back(
            trng::sample_device(cfg_.profile, cfg_.master_seed, d));
    }

    // Contiguous device ranges per shard (remainder spread over the
    // first shards).
    const std::uint32_t base = cfg_.devices / cfg_.shards;
    const std::uint32_t rem = cfg_.devices % cfg_.shards;
    std::vector<std::uint32_t> first(cfg_.shards + 1, 0);
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        first[s + 1] = first[s] + base + (s < rem ? 1 : 0);
    }

    unsigned threads_per_shard = cfg_.threads_per_shard;
    if (threads_per_shard == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads_per_shard = std::max(1u, hw / cfg_.shards);
    }

    // The unit table: one unit per device, shard after shard.
    const fleet_config fcfg = cfg_.shard_fleet_config();
    unit_pool pool(threads_per_shard * cfg_.shards);
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        pool.add(s, first[s], first[s + 1] - first[s]);
    }

    population_report report;
    report.devices = cfg_.devices;
    report.shards = cfg_.shards;
    if (cfg_.keep_device_records) {
        report.device_records.resize(cfg_.devices);
    }
    std::vector<worker_partial> partials(pool.workers(),
                                         worker_partial(cfg_.shards));
    // One channel runner per worker, built on first use by that worker:
    // a device resets it instead of building a supervisor.
    std::vector<std::unique_ptr<channel_runner>> runners(pool.workers());

    pool.run([&](unsigned w, const pool_unit& u) {
        const std::uint32_t d = u.first;
        const trng::device_profile& p = profiles[d];
        channel_report cr;
        try {
            auto src = trng::make_device_source(p, cfg_.block.n());
            try {
                if (!runners[w]) {
                    runners[w] = std::make_unique<channel_runner>(
                        fcfg, cv_, cv_escalated_);
                }
                cr = runners[w]->run(*src, d - first[u.shard],
                                     cfg_.windows_per_device);
            } catch (const std::exception& e) {
                throw std::runtime_error(
                    "device " + std::to_string(d) + " (source \""
                    + src->name() + "\"): " + e.what());
            }
        } catch (const std::exception& e) {
            throw std::runtime_error("population_monitor: shard "
                                     + std::to_string(u.shard) + ": "
                                     + e.what());
        }
        device_record rec;
        rec.device = p.device;
        rec.shard = u.shard;
        rec.kind = p.kind;
        rec.attacked = p.attacked();
        rec.churned = p.churns;
        rec.alarm = cr.alarm;
        rec.onset_window = p.onset_window;
        rec.first_alarm_window = cr.first_alarm_window;
        rec.windows = cr.windows;
        rec.failures = cr.failures;
        rec.bits = cr.bits;
        rec.escalations = cr.escalations;
        rec.confirmed_escalations = cr.confirmed_escalations;
        rec.de_escalations = cr.de_escalations;
        rec.windows_escalated = cr.windows_escalated;
        partials[w].fold(rec, cr.failures_by_test);
        if (cfg_.keep_device_records) {
            // Each device owns its slot: no two workers share one.
            report.device_records[rec.device] = rec;
        }
    });

    // Merge the worker partials in worker order.
    report.shard_reports.resize(cfg_.shards);
    std::vector<std::uint64_t> latencies;
    for (const worker_partial& part : partials) {
        for (unsigned s = 0; s < cfg_.shards; ++s) {
            population_shard_report& sr = report.shard_reports[s];
            const population_shard_report& ps = part.shards[s];
            sr.windows += ps.windows;
            sr.failures += ps.failures;
            sr.bits += ps.bits;
            sr.channels_in_alarm += ps.channels_in_alarm;
            sr.escalations += ps.escalations;
            sr.channels_escalated += ps.channels_escalated;
            sr.confirmed_escalations += ps.confirmed_escalations;
        }
        for (std::size_t k = 0; k < report.by_kind.size(); ++k) {
            report.by_kind[k].devices += part.by_kind[k].devices;
            report.by_kind[k].alarmed += part.by_kind[k].alarmed;
            report.by_kind[k].detected += part.by_kind[k].detected;
        }
        report.devices_churned += part.churned;
        report.healthy_windows += part.healthy_windows;
        latencies.insert(latencies.end(), part.latencies.begin(),
                         part.latencies.end());
        report.failures_by_test += part.failures_by_test;
    }

    // Population totals are the shard sums; the attacked/healthy split is
    // the per-kind tally (every kind but healthy is an attack).
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        population_shard_report& sr = report.shard_reports[s];
        sr.shard = s;
        sr.first_device = first[s];
        sr.device_count = first[s + 1] - first[s];
        report.windows += sr.windows;
        report.failures += sr.failures;
        report.bits += sr.bits;
        report.devices_alarmed += sr.channels_in_alarm;
        report.escalations += sr.escalations;
        report.channels_escalated += sr.channels_escalated;
        report.confirmed_escalations += sr.confirmed_escalations;
    }
    for (std::size_t k = 0; k < report.by_kind.size(); ++k) {
        const kind_summary& ks = report.by_kind[k];
        if (static_cast<trng::device_kind>(k) == trng::device_kind::healthy) {
            report.devices_healthy += ks.devices;
            report.healthy_alarms += ks.alarmed;
        } else {
            report.devices_attacked += ks.devices;
            report.attacked_alarmed += ks.alarmed;
        }
        report.detected += ks.detected;
    }

    std::sort(latencies.begin(), latencies.end());
    report.alarm_latency.samples = latencies.size();
    if (!latencies.empty()) {
        report.alarm_latency.p50 = nearest_rank(latencies, 0.50);
        report.alarm_latency.p95 = nearest_rank(latencies, 0.95);
        report.alarm_latency.p99 = nearest_rank(latencies, 0.99);
        report.alarm_latency.worst = latencies.back();
        std::uint64_t sum = 0;
        for (const std::uint64_t l : latencies) {
            sum += l;
        }
        report.alarm_latency.mean = static_cast<double>(sum)
            / static_cast<double>(latencies.size());
    }

    // The long-horizon extrapolation: the observed per-window hazard of a
    // healthy device tripping the escalation trigger, scaled to a day of
    // the real device's bit rate -- the number a fleet operator budgets
    // response capacity against.
    if (report.healthy_windows > 0) {
        report.false_alarm_rate_per_window =
            static_cast<double>(report.healthy_alarms)
            / static_cast<double>(report.healthy_windows);
        const double windows_per_day = cfg_.device_bits_per_second * 86400.0
            / static_cast<double>(cfg_.block.n());
        report.false_escalations_per_device_day =
            report.false_alarm_rate_per_window * windows_per_day;
    }

    report.execution = "fused";
    report.lane = fcfg.lane_description();
    report.worker_threads = pool.workers();
    report.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return report;
}

std::string format_population(const population_report& report)
{
    std::string out = format_line(
        "population: %u devices over %u shards, %llu windows, %llu "
        "failing, %.3g Mbit tested in %.2fs (%.2f Mbit/s)\n",
        report.devices, report.shards,
        static_cast<unsigned long long>(report.windows),
        static_cast<unsigned long long>(report.failures),
        static_cast<double>(report.bits) / 1.0e6, report.seconds,
        report.bits_per_second() / 1.0e6);
    out += format_line("execution: %s (%s lane), %u workers\n",
                       report.execution.c_str(), report.lane.c_str(),
                       report.worker_threads);
    out += format_line("%-18s %9s %9s %9s\n", "kind", "devices", "alarmed",
                       "detected");
    for (std::size_t k = 0; k < report.by_kind.size(); ++k) {
        const kind_summary& ks = report.by_kind[k];
        if (ks.devices == 0) {
            continue;
        }
        const auto kind = static_cast<trng::device_kind>(k);
        if (kind == trng::device_kind::healthy) {
            out += format_line("%-18s %9u %9u %9s\n",
                               trng::to_string(kind).c_str(), ks.devices,
                               ks.alarmed, "-");
        } else {
            out += format_line("%-18s %9u %9u %9u\n",
                               trng::to_string(kind).c_str(), ks.devices,
                               ks.alarmed, ks.detected);
        }
    }
    if (report.alarm_latency.samples > 0) {
        out += format_line(
            "alarm latency (windows since onset): p50=%llu p95=%llu "
            "p99=%llu worst=%llu mean=%.2f over %llu devices\n",
            static_cast<unsigned long long>(report.alarm_latency.p50),
            static_cast<unsigned long long>(report.alarm_latency.p95),
            static_cast<unsigned long long>(report.alarm_latency.p99),
            static_cast<unsigned long long>(report.alarm_latency.worst),
            report.alarm_latency.mean,
            static_cast<unsigned long long>(report.alarm_latency.samples));
    } else {
        out += "alarm latency: no attacked device detected\n";
    }
    out += format_line(
        "false alarms: %u of %u healthy devices (rate %.3g/window) -> "
        "%.3g expected false escalations per device-day\n",
        report.healthy_alarms, report.devices_healthy,
        report.false_alarm_rate_per_window,
        report.false_escalations_per_device_day);
    if (report.escalations > 0 || report.confirmed_escalations > 0) {
        out += format_line(
            "escalations: %u (%u confirmed offline) across %u devices\n",
            report.escalations, report.confirmed_escalations,
            report.channels_escalated);
    }
    for (const population_shard_report& sr : report.shard_reports) {
        out += format_line(
            "shard %-3u devices [%u, %u): %llu windows, %llu failing, "
            "%u in alarm, %u escalations\n",
            sr.shard, sr.first_device, sr.first_device + sr.device_count,
            static_cast<unsigned long long>(sr.windows),
            static_cast<unsigned long long>(sr.failures),
            sr.channels_in_alarm, sr.escalations);
    }
    return out;
}

} // namespace otf::core
