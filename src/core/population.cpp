#include "core/population.hpp"

#include "base/event_queue.hpp"
#include "base/work_deque.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
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
    if (queue_records == 0) {
        throw std::invalid_argument(
            "population_config: telemetry queue needs capacity >= 1");
    }
    if (telemetry_flush_records == 0) {
        throw std::invalid_argument(
            "population_config: telemetry flush epoch needs >= 1 record");
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

/// One schedulable batch: `count` consecutive devices of one shard,
/// either a 64-wide bit-sliced group or a scalar run.  The deques carry
/// indices into the unit table (one atomic word each).
struct device_unit {
    std::uint32_t first_device = 0;
    std::uint32_t count = 0;
    std::uint32_t shard = 0;
    bool sliced = false;
};

/// Per-(worker, shard) partial sums, merged in fixed order after the
/// join -- integer sums, so the steal schedule cannot reach the report.
struct shard_partial {
    std::uint64_t windows = 0;
    std::uint64_t failures = 0;
    std::uint64_t bits = 0;
    unsigned in_alarm = 0;
    unsigned escalations = 0;
    unsigned channels_escalated = 0;
    unsigned confirmed_escalations = 0;
};

} // namespace

population_report population_monitor::run()
{
    const auto start = std::chrono::steady_clock::now();

    // Profiles are pure functions of (master_seed, device): sampling them
    // up front is equivalent to sampling inside any worker, so neither
    // the shard layout nor the steal schedule can leak into the
    // population.
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
    const std::uint64_t pool_budget =
        std::uint64_t{threads_per_shard} * cfg_.shards;

    // Device-batch granularity: big enough that a unit amortizes its
    // scheduling, small enough that stealing can still balance (a
    // handful of units per worker).  Sliced groups are always 64 wide
    // (the tile width); batch size changes timing only, never data.
    std::uint32_t batch = cfg_.steal_batch_devices;
    if (batch == 0) {
        const std::uint64_t target = pool_budget * 4;
        const std::uint64_t auto_batch = cfg_.devices / target;
        batch = static_cast<std::uint32_t>(
            std::clamp<std::uint64_t>(auto_batch, 1, 64));
    }

    // The unit table: per shard, carve sliced-eligible 64-device groups
    // off the front (mirroring fleet_monitor's grouping for a shard of
    // that size), then batch the rest for the scalar lane.
    const fleet_config fcfg = cfg_.shard_fleet_config();
    std::vector<device_unit> units;
    std::uint64_t sliced_units = 0;
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        const std::uint32_t count = first[s + 1] - first[s];
        fleet_config probe = fcfg;
        probe.channels = count;
        std::uint32_t d = first[s];
        if (probe.uses_sliced_lane()) {
            constexpr std::uint32_t lanes = 64;
            for (; d + lanes <= first[s + 1]; d += lanes) {
                units.push_back(device_unit{d, lanes, s, true});
                ++sliced_units;
            }
        }
        while (d < first[s + 1]) {
            const std::uint32_t take =
                std::min(batch, first[s + 1] - d);
            units.push_back(device_unit{d, take, s, false});
            d += take;
        }
    }
    const auto unit_count = static_cast<std::uint32_t>(units.size());

    unsigned workers = static_cast<unsigned>(
        std::min<std::uint64_t>(pool_budget, unit_count));
    if (workers == 0) {
        workers = 1;
    }

    // One Chase-Lev deque per worker, seeded round-robin with unit
    // indices before any worker starts; no pushes afterwards, so an
    // empty sweep across every deque is a termination proof.
    std::vector<std::unique_ptr<base::work_deque<std::uint32_t>>> deques;
    deques.reserve(workers);
    const std::size_t per_worker = (unit_count + workers - 1) / workers;
    for (unsigned w = 0; w < workers; ++w) {
        deques.push_back(std::make_unique<base::work_deque<std::uint32_t>>(
            per_worker));
    }
    for (std::uint32_t u = 0; u < unit_count; ++u) {
        deques[u % workers]->push(u);
    }

    base::event_queue<device_record> queue(cfg_.queue_records);

    population_report report;
    report.devices = cfg_.devices;
    report.shards = cfg_.shards;
    report.queue_capacity = queue.capacity();
    if (cfg_.keep_device_records) {
        report.device_records.resize(cfg_.devices);
    }
    std::vector<std::uint64_t> latencies;

    // The single aggregator drains records as flush epochs land, while
    // the workers are still running.  All accumulation is
    // order-independent (integer sums; the latency sample is sorted
    // before the percentile cut), so arrival order -- the one thing
    // scheduling controls -- cannot reach the report.
    std::thread aggregator([&] {
        device_record rec;
        for (;;) {
            if (!queue.try_pop(rec)) {
                if (queue.drained()) {
                    return;
                }
                std::this_thread::yield();
                continue;
            }
            report.windows += rec.windows;
            report.failures += rec.failures;
            report.bits += rec.bits;
            report.escalations += rec.escalations;
            report.channels_escalated += rec.escalations > 0 ? 1 : 0;
            report.confirmed_escalations += rec.confirmed_escalations;
            auto& kind = report.by_kind[static_cast<std::size_t>(rec.kind)];
            ++kind.devices;
            if (rec.attacked) {
                ++report.devices_attacked;
                if (rec.alarm) {
                    ++report.attacked_alarmed;
                    ++kind.alarmed;
                }
                if (rec.detected()) {
                    ++report.detected;
                    ++kind.detected;
                    latencies.push_back(rec.detection_latency());
                }
            } else {
                ++report.devices_healthy;
                report.healthy_windows += rec.windows;
                if (rec.churned) {
                    ++report.devices_churned;
                }
                if (rec.alarm) {
                    ++report.healthy_alarms;
                    ++kind.alarmed;
                }
            }
            if (rec.alarm) {
                ++report.devices_alarmed;
            }
            if (cfg_.keep_device_records) {
                report.device_records[rec.device] = rec;
            }
        }
    });

    // Worker-local accumulators (partial shard sums, steal/flush
    // counters, the failures-by-test merge input), folded together in
    // fixed order after the join.
    std::vector<std::vector<shard_partial>> partials(
        workers, std::vector<shard_partial>(cfg_.shards));
    std::vector<std::map<std::string, std::uint64_t>> fails_by_test(
        workers);
    std::vector<std::uint64_t> steal_counts(workers, 0);
    std::vector<std::uint64_t> flush_counts(workers, 0);

    std::atomic<bool> stop{false};
    std::exception_ptr failure;
    std::mutex failure_mutex;

    const auto worker_main = [&](unsigned w) {
        std::vector<device_record> pending;
        pending.reserve(cfg_.telemetry_flush_records);
        const auto flush = [&] {
            if (pending.empty()) {
                return;
            }
            for (const device_record& rec : pending) {
                while (!queue.try_push(rec)) {
                    // Bounded queue full: the aggregator is behind;
                    // yield until a slot frees (backpressure, never
                    // loss -- capacity changes timing, not data).
                    std::this_thread::yield();
                }
            }
            pending.clear();
            ++flush_counts[w];
        };
        const auto emit = [&](const device_unit& u,
                              const channel_report& cr,
                              const trng::device_profile& p) {
            shard_partial& sp = partials[w][u.shard];
            sp.windows += cr.windows;
            sp.failures += cr.failures;
            sp.bits += cr.bits;
            sp.in_alarm += cr.alarm ? 1 : 0;
            sp.escalations += cr.escalations;
            sp.channels_escalated += cr.escalations > 0 ? 1 : 0;
            sp.confirmed_escalations += cr.confirmed_escalations;
            for (const auto& [name, count] : cr.failures_by_test) {
                fails_by_test[w][name] += count;
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
            pending.push_back(rec);
            if (pending.size() >= cfg_.telemetry_flush_records) {
                flush();
            }
        };
        const auto run_unit = [&](const device_unit& u) {
            try {
                if (u.sliced) {
                    constexpr unsigned lanes = 64;
                    std::unique_ptr<trng::entropy_source> srcs[lanes];
                    trng::entropy_source* raw[lanes];
                    for (unsigned i = 0; i < lanes; ++i) {
                        srcs[i] = trng::make_device_source(
                            profiles[u.first_device + i], cfg_.block.n());
                        raw[i] = srcs[i].get();
                    }
                    std::vector<channel_report> crs(lanes);
                    try {
                        run_fleet_sliced_group(
                            fcfg, cv_, raw,
                            u.first_device - first[u.shard],
                            cfg_.windows_per_device, crs.data());
                    } catch (const std::exception& e) {
                        throw std::runtime_error(
                            "devices "
                            + std::to_string(u.first_device) + ".."
                            + std::to_string(u.first_device + lanes - 1)
                            + ": " + e.what());
                    }
                    for (unsigned i = 0; i < lanes; ++i) {
                        emit(u, crs[i], profiles[u.first_device + i]);
                    }
                } else {
                    for (std::uint32_t d = u.first_device;
                         d < u.first_device + u.count; ++d) {
                        auto src = trng::make_device_source(
                            profiles[d], cfg_.block.n());
                        channel_report cr;
                        try {
                            cr = run_fleet_channel(
                                fcfg, cv_, cv_escalated_, *src,
                                d - first[u.shard],
                                cfg_.windows_per_device);
                        } catch (const std::exception& e) {
                            throw std::runtime_error(
                                "device " + std::to_string(d)
                                + " (source \"" + src->name() + "\"): "
                                + e.what());
                        }
                        emit(u, cr, profiles[d]);
                    }
                }
            } catch (const std::exception& e) {
                throw std::runtime_error(
                    "population_monitor: shard "
                    + std::to_string(u.shard) + ": " + e.what());
            }
        };
        try {
            std::uint32_t idx = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                // Own work first (LIFO, cache-hot) ...
                if (deques[w]->pop(idx)) {
                    run_unit(units[idx]);
                    continue;
                }
                // ... then steal the oldest unit from a busy peer.  A
                // failed steal may be a lost race rather than an empty
                // deque, so the sweep only terminates once every deque
                // looks empty.
                bool busy = false;
                for (unsigned v = 1; v < workers && !busy; ++v) {
                    base::work_deque<std::uint32_t>& victim =
                        *deques[(w + v) % workers];
                    if (victim.steal(idx)) {
                        ++steal_counts[w];
                        run_unit(units[idx]);
                        busy = true;
                    } else if (!victim.empty()) {
                        busy = true; // lost a race; sweep again
                    }
                }
                if (!busy) {
                    break; // no pushes after seeding: done for good
                }
            }
        } catch (...) {
            {
                const std::lock_guard<std::mutex> lock(failure_mutex);
                if (!failure) {
                    failure = std::current_exception();
                }
            }
            stop.store(true); // drain the pool, stop the population
        }
        flush();
    };

    if (workers == 1) {
        worker_main(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back(worker_main, w);
        }
        for (std::thread& t : pool) {
            t.join();
        }
    }
    // All workers have quiesced; let the aggregator drain and finish.
    queue.close();
    aggregator.join();

    if (failure) {
        std::rethrow_exception(failure);
    }

    // Per-shard summaries and the failures-by-test merge fold the
    // worker-local partials in fixed (shard, worker) order
    // (device_records carry no strings -- the queue payload stays
    // trivially copyable).
    report.shard_reports.reserve(cfg_.shards);
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        population_shard_report sr;
        sr.shard = s;
        sr.first_device = first[s];
        sr.device_count = first[s + 1] - first[s];
        for (unsigned w = 0; w < workers; ++w) {
            const shard_partial& sp = partials[w][s];
            sr.windows += sp.windows;
            sr.failures += sp.failures;
            sr.bits += sp.bits;
            sr.channels_in_alarm += sp.in_alarm;
            sr.escalations += sp.escalations;
            sr.channels_escalated += sp.channels_escalated;
            sr.confirmed_escalations += sp.confirmed_escalations;
        }
        report.shard_reports.push_back(std::move(sr));
    }
    for (unsigned w = 0; w < workers; ++w) {
        for (const auto& [name, count] : fails_by_test[w]) {
            report.failures_by_test[name] += count;
        }
        report.steals += steal_counts[w];
        report.telemetry_flushes += flush_counts[w];
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
    if (cfg_.lane != ingest_lane::sliced) {
        report.lane = fcfg.lane_description();
    } else if (sliced_units == 0) {
        report.lane = "span (sliced fallback)";
    } else {
        report.lane = sliced_units == unit_count ? "sliced"
                                                 : "sliced+span";
    }
    report.worker_threads = workers;
    report.steal_batch_devices = batch;
    report.queue_pushed = queue.total_pushed();
    report.queue_push_stalls = queue.push_stalls();
    report.queue_pop_stalls = queue.pop_stalls();
    report.queue_max_occupancy = queue.max_occupancy();
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
    out += format_line(
        "execution: %s (%s lane), %u workers, steal batch %u devices, "
        "%llu steals, %llu telemetry flushes\n",
        report.execution.c_str(), report.lane.c_str(),
        report.worker_threads, report.steal_batch_devices,
        static_cast<unsigned long long>(report.steals),
        static_cast<unsigned long long>(report.telemetry_flushes));
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
    out += format_line(
        "queue: %llu records through %zu slots, high-water %zu, "
        "push stalls %llu, pop stalls %llu\n",
        static_cast<unsigned long long>(report.queue_pushed),
        report.queue_capacity, report.queue_max_occupancy,
        static_cast<unsigned long long>(report.queue_push_stalls),
        static_cast<unsigned long long>(report.queue_pop_stalls));
    return out;
}

} // namespace otf::core
