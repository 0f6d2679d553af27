// Population-scale monitoring: a sharded fleet-of-fleets.
//
// The paper's platform guards one TRNG; the production question it leaves
// open is what its alpha calibration means across *millions* of devices --
// how many false escalations per device-day a fleet operator eats, and how
// fast real attacks surface, when every device sits at a slightly
// different operating point.  This layer answers that at simulation scale:
//
//   population_monitor
//     unit table: per shard, whole sliced 64-device groups, then
//     │           one-device units (core::unit_pool, as the fleet)
//     ├── worker 0 ─┐  claim the next unit off one atomic cursor;
//     ├── worker 1 ─┤  fused generation + testing; fold each
//     │     ...     ─┘  device_record into a worker-local partial
//     │ join
//     calling thread: merge the partials in worker order
//                            │
//                     population_report
//
// Devices belong to contiguous per-shard ranges (shards are the
// reporting granularity), but the pool is population-wide: one unit
// table over every shard, so a shard full of escalating devices does not
// strand the workers of the quiet ones.  Each worker runs its devices
// through the fused fleet lanes (core/fleet_monitor.hpp:
// run_fleet_channel / run_fleet_sliced_group), with critical values
// inverted once for the whole population and shared.  Devices are
// heterogeneous: trng::sample_device draws each unit's bias point,
// attack model, severity and onset from the master seed (a pure
// function of (master_seed, device id)), so the population is identical
// under any shard layout, thread count or claim order.  Every aggregate
// is accumulated order-independently (integer sums; latencies sorted
// before the percentile cut), so `same_counters` holds across {1, 2, N}
// threads and any shard count, mirroring the fleet-level guarantee.
#pragma once

#include "core/critical_values.hpp"
#include "core/fleet_monitor.hpp"
#include "hw/config.hpp"
#include "trng/device_profile.hpp"

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace otf::core {

/// One device's outcome (plain data: the per-device slot of the report
/// and the unit the aggregation folds).
struct device_record {
    std::uint32_t device = 0;
    std::uint32_t shard = 0;
    trng::device_kind kind = trng::device_kind::healthy;
    bool attacked = false;
    bool churned = false;
    bool alarm = false;
    std::uint64_t onset_window = 0;
    /// == windows when the alarm never rose (channel_report sentinel).
    std::uint64_t first_alarm_window = 0;
    std::uint64_t windows = 0;
    std::uint64_t failures = 0;
    std::uint64_t bits = 0;
    unsigned escalations = 0;
    unsigned confirmed_escalations = 0;
    unsigned de_escalations = 0;
    std::uint64_t windows_escalated = 0;

    /// Alarm at or after the attack's onset -- attributable detection.
    bool detected() const
    {
        return attacked && alarm && first_alarm_window >= onset_window;
    }
    /// A healthy device raising the escalation trigger.
    bool false_alarmed() const { return !attacked && alarm; }
    /// Windows from onset to the alarm rising, inclusive (valid when
    /// detected()).
    std::uint64_t detection_latency() const
    {
        return first_alarm_window - onset_window + 1;
    }

    /// Deterministic fields only: the shard id is layout bookkeeping --
    /// the same device lands on a
    /// different shard under a different layout with the same outcome.
    friend bool operator==(const device_record& a, const device_record& b)
    {
        return a.device == b.device
            && a.kind == b.kind && a.attacked == b.attacked
            && a.churned == b.churned && a.alarm == b.alarm
            && a.onset_window == b.onset_window
            && a.first_alarm_window == b.first_alarm_window
            && a.windows == b.windows && a.failures == b.failures
            && a.bits == b.bits && a.escalations == b.escalations
            && a.confirmed_escalations == b.confirmed_escalations
            && a.de_escalations == b.de_escalations
            && a.windows_escalated == b.windows_escalated;
    }
};

/// \brief Configuration of a population run.
struct population_config {
    /// Per-device design point (and optional escalated tier); the same
    /// knobs as fleet_config, applied to every shard.
    hw::block_config block;
    std::optional<hw::block_config> escalated_block;
    double alpha = 0.01;
    unsigned fail_threshold = 2;
    unsigned policy_window = 8;
    std::size_t evidence_windows = 8;
    std::uint64_t dwell_windows = 16;
    double offline_alpha = 0.01;
    unsigned offline_min_failures = 2;
    ingest_lane lane = ingest_lane::span;

    /// Population shape.
    std::uint32_t devices = 1024;
    /// Shards (contiguous device ranges -- the reporting granularity;
    /// the worker pool is population-wide).
    unsigned shards = 2;
    /// Worker threads per shard; 0 = hardware_concurrency / shards
    /// (at least 1).  The pool is global (shards x this many workers,
    /// capped at the number of work units); the per-shard phrasing is
    /// kept so existing layouts keep their thread budget.  Thread count
    /// never changes the report.
    unsigned threads_per_shard = 0;
    std::uint64_t windows_per_device = 16;

    /// Per-device variation: the master seed and the distributions every
    /// device's parameters are drawn from.
    std::uint64_t master_seed = 0x0ddc0ffee1dea5edULL;
    trng::population_profile profile;

    /// Real-device throughput assumed when extrapolating per-window
    /// rates to device-days (the paper's TRNG-side bit rate).
    double device_bits_per_second = 1.0e6;

    /// Keep every device_record in the report (device-count memory;
    /// off by default at population scale).
    bool keep_device_records = false;

    /// \throws std::invalid_argument on an empty population, more shards
    /// than devices, a sub-word design (device variation needs word-
    /// aligned windows), or invalid profile/fleet knobs
    void validate() const;

    /// The per-shard fleet configuration this implies (channel count
    /// filled in per shard by the population monitor).
    fleet_config shard_fleet_config() const;
};

/// \brief One shard's totals (the per-device details are the
/// device_records).
struct population_shard_report {
    unsigned shard = 0;
    std::uint32_t first_device = 0;
    std::uint32_t device_count = 0;
    std::uint64_t windows = 0;
    std::uint64_t failures = 0;
    std::uint64_t bits = 0;
    unsigned channels_in_alarm = 0;
    unsigned escalations = 0;
    unsigned channels_escalated = 0;
    unsigned confirmed_escalations = 0;

    friend bool operator==(const population_shard_report&,
                           const population_shard_report&) = default;
};

/// Per-device-kind outcome tally.
struct kind_summary {
    std::uint32_t devices = 0;
    std::uint32_t alarmed = 0;  ///< alarm at any point
    std::uint32_t detected = 0; ///< alarm at/after onset (attacked kinds)

    friend bool operator==(const kind_summary&,
                           const kind_summary&) = default;
};

/// Alarm-latency distribution across detected attacked devices, in
/// windows from onset (inclusive).
struct latency_percentiles {
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t worst = 0;
    double mean = 0.0; ///< integer sum / samples: order-independent
    std::uint64_t samples = 0;

    friend bool operator==(const latency_percentiles&,
                           const latency_percentiles&) = default;
};

/// \brief Nearest-rank percentile over an ascending-sorted sample:
/// sorted[ceil(q * N) - 1].
/// \param sorted ascending samples (0 returned when empty)
/// \param q      quantile in (0, 1]
std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                           double q);

/// \brief Aggregated population telemetry.  Everything except `seconds`
/// is a deterministic function of (config, master seed).
struct population_report {
    std::uint32_t devices = 0;
    unsigned shards = 0;
    std::uint64_t windows = 0;
    std::uint64_t failures = 0;
    std::uint64_t bits = 0;

    std::uint32_t devices_attacked = 0;
    std::uint32_t devices_healthy = 0;
    std::uint32_t devices_churned = 0;
    std::uint32_t devices_alarmed = 0;
    std::uint32_t healthy_alarms = 0;   ///< false escalation triggers
    std::uint32_t attacked_alarmed = 0; ///< alarm at any point
    std::uint32_t detected = 0;         ///< alarm at/after onset
    std::uint64_t healthy_windows = 0;  ///< false-rate denominator

    unsigned escalations = 0;
    unsigned channels_escalated = 0;
    unsigned confirmed_escalations = 0;

    /// Outcomes by device kind, indexed by trng::device_kind.
    std::array<kind_summary, trng::device_kind_count> by_kind{};
    latency_percentiles alarm_latency;

    /// Observed per-window false-alarm hazard on healthy devices
    /// (alarm rises / healthy windows) ...
    double false_alarm_rate_per_window = 0.0;
    /// ... extrapolated to expected false escalations per device-day at
    /// the configured device bit rate.
    double false_escalations_per_device_day = 0.0;

    std::map<std::string, std::uint64_t> failures_by_test;
    std::vector<population_shard_report> shard_reports;
    /// Every device's record, in device order (keep_device_records).
    std::vector<device_record> device_records;

    /// How the run executed (deterministic given the configuration but
    /// descriptive of the schedule, not the data -- outside
    /// same_counters, which compares across lanes and layouts): the
    /// execution model (always "fused": workers generate and test in one
    /// pass), the lane actually used (fallbacks spelled out) and the
    /// global worker-pool size.
    std::string execution;
    std::string lane;
    unsigned worker_threads = 0;
    /// Always 0: the pool has no work stealing and no aggregation queue.
    /// Kept only because the benchmark harness still reads them.
    std::uint64_t steals = 0;
    std::uint64_t queue_pop_stalls = 0;

    /// Wall clock of the run (nondeterministic).
    double seconds = 0.0;

    /// Aggregate simulation throughput over the wall clock.
    double bits_per_second() const
    {
        return seconds > 0.0 ? static_cast<double>(bits) / seconds : 0.0;
    }

    /// Everything the determinism guarantee covers: equal configs and
    /// master seeds must agree on all of this at any shard/thread count.
    /// The per-shard breakdown (`shards`, `shard_reports`) describes the
    /// layout itself, so it is deliberately outside the comparison --
    /// within one layout it is deterministic too (fleet-level guarantee).
    bool same_counters(const population_report& other) const;
};

/// \brief Multi-line plain-text population summary: per-kind outcome
/// table, latency percentiles, false-escalation extrapolation and
/// per-shard rows.
std::string format_population(const population_report& report);

/// \brief Runs a heterogeneous device population over the shared
/// unit_pool.
///
/// Usage:
///   core::population_monitor pop(cfg);
///   auto report = pop.run();
class population_monitor {
public:
    /// \brief Validate the configuration and invert critical values once
    /// for the whole population.
    explicit population_monitor(population_config cfg);

    const population_config& config() const { return cfg_; }

    /// \brief Sample the population, run every device, aggregate.
    /// Blocks until the population is done.
    /// \throws std::runtime_error naming the shard and device of the
    /// first failing channel (the pool drains and joins before the
    /// rethrow)
    population_report run();

private:
    population_config cfg_;
    critical_values cv_;
    std::optional<critical_values> cv_escalated_;
};

} // namespace otf::core
