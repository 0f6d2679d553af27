// Tests of the population-scale fleet-of-fleets: layout-independent
// determinism (the master-seed guarantee across shard and thread counts),
// aggregation invariants between the population totals, the per-shard
// reports and the device records, the false-escalation extrapolation,
// nearest-rank percentiles and configuration validation.
#include "core/design_config.hpp"
#include "core/population.hpp"

#include "support/fixed_seed.hpp"

#include <cstdint>
#include <gtest/gtest.h>
#include <stdexcept>
#include <vector>

namespace {

using namespace otf;
using test::fixture_seed;

core::population_config small_config()
{
    core::population_config cfg;
    cfg.block = core::paper_design(7, core::tier::light);
    cfg.devices = 64;
    cfg.shards = 2;
    cfg.threads_per_shard = 2;
    cfg.windows_per_device = 6;
    cfg.master_seed = fixture_seed(11);
    // Half the population attacked: plenty of detections at this scale.
    cfg.profile.attacked_fraction = 0.5;
    cfg.keep_device_records = true;
    return cfg;
}

core::population_config supervised_config()
{
    core::population_config cfg = small_config();
    cfg.escalated_block = core::paper_design(7, core::tier::medium);
    cfg.dwell_windows = 1000; // stay escalated once triggered
    return cfg;
}

TEST(nearest_rank, picks_the_ceiling_rank)
{
    const std::vector<std::uint64_t> ten = {1, 2, 3, 4, 5,
                                            6, 7, 8, 9, 10};
    EXPECT_EQ(core::nearest_rank(ten, 0.50), 5u);
    EXPECT_EQ(core::nearest_rank(ten, 0.95), 10u);
    EXPECT_EQ(core::nearest_rank(ten, 0.99), 10u);
    EXPECT_EQ(core::nearest_rank(ten, 1.0), 10u);
    EXPECT_EQ(core::nearest_rank(ten, 0.05), 1u);
    EXPECT_EQ(core::nearest_rank({7}, 0.5), 7u);
    EXPECT_EQ(core::nearest_rank({}, 0.5), 0u) << "empty sample";
    EXPECT_THROW(core::nearest_rank(ten, 0.0), std::invalid_argument);
    EXPECT_THROW(core::nearest_rank(ten, 1.5), std::invalid_argument);
}

TEST(population, report_is_independent_of_shard_and_thread_layout)
{
    // The tentpole guarantee: the same master seed gives the same
    // population outcome -- per-device records included -- under any
    // sharding and any worker-thread count.
    struct layout {
        unsigned shards;
        unsigned threads_per_shard;
    };
    const auto run_with = [](layout l) {
        core::population_config cfg = small_config();
        cfg.shards = l.shards;
        cfg.threads_per_shard = l.threads_per_shard;
        return core::population_monitor(cfg).run();
    };
    const core::population_report baseline = run_with({1, 1});
    for (const layout l : {layout{2, 1}, layout{2, 2}, layout{4, 2},
                           layout{3, 0}}) {
        const core::population_report report = run_with(l);
        EXPECT_TRUE(baseline.same_counters(report))
            << l.shards << " shards x " << l.threads_per_shard
            << " threads changed the population report";
        ASSERT_EQ(report.device_records.size(), baseline.devices);
        for (std::uint32_t d = 0; d < baseline.devices; ++d) {
            ASSERT_EQ(baseline.device_records[d], report.device_records[d])
                << "device " << d << " at " << l.shards << "x"
                << l.threads_per_shard;
        }
    }
}

TEST(population, per_bit_lane_never_changes_the_report)
{
    // The per-bit oracle lane must not reach the report, down to the
    // per-device records.
    const core::population_report baseline =
        core::population_monitor(small_config()).run();
    EXPECT_EQ(baseline.execution, "fused");

    std::vector<core::population_config> variants;
    {
        core::population_config cfg = small_config();
        cfg.lane = core::ingest_lane::per_bit;
        variants.push_back(cfg);
    }
    for (const core::population_config& cfg : variants) {
        const core::population_report report =
            core::population_monitor(cfg).run();
        const std::string ctx = report.lane;
        EXPECT_TRUE(baseline.same_counters(report)) << ctx;
        ASSERT_EQ(report.device_records.size(), baseline.devices) << ctx;
        for (std::uint32_t d = 0; d < baseline.devices; ++d) {
            ASSERT_EQ(baseline.device_records[d], report.device_records[d])
                << ctx << " device " << d;
        }
    }
}

TEST(population, sliced_lane_agrees_across_lanes_and_layouts)
{
    // A sliced-eligible population (>= 64 devices per shard) rides the
    // fused 64x64 tile lane; smaller shards degrade to the span lane,
    // and the per-bit lane is the oracle.  All of it must land on the
    // same numbers.
    const auto run_with = [](unsigned shards, core::ingest_lane lane) {
        core::population_config cfg = small_config();
        // Only the cheap always-on pair rides the sliced verdict path.
        cfg.block = core::custom_design(7, hw::test_set{}
                                               .with(hw::test_id::frequency)
                                               .with(hw::test_id::runs));
        cfg.devices = 128;
        cfg.shards = shards;
        cfg.lane = lane;
        return core::population_monitor(cfg).run();
    };
    const core::population_report baseline =
        run_with(1, core::ingest_lane::sliced);
    EXPECT_EQ(baseline.lane, "sliced")
        << "128 devices in one shard must fill two whole tile groups";
    const struct {
        unsigned shards;
        core::ingest_lane lane;
    } layouts[] = {{2, core::ingest_lane::sliced},
                   {4, core::ingest_lane::sliced},
                   {1, core::ingest_lane::per_bit},
                   {3, core::ingest_lane::sliced}};
    for (const auto& l : layouts) {
        const core::population_report report = run_with(l.shards, l.lane);
        EXPECT_TRUE(baseline.same_counters(report))
            << l.shards << " shards, " << report.lane;
        for (std::uint32_t d = 0; d < baseline.devices; ++d) {
            ASSERT_EQ(baseline.device_records[d], report.device_records[d])
                << "device " << d << " at " << l.shards << " shards "
                << report.lane;
        }
    }
}

TEST(population, aggregates_match_the_shard_reports_and_device_records)
{
    const core::population_report report =
        core::population_monitor(supervised_config()).run();

    // Population totals vs the per-shard reports.
    std::uint64_t windows = 0;
    std::uint64_t failures = 0;
    std::uint64_t bits = 0;
    unsigned alarms = 0;
    unsigned escalations = 0;
    unsigned confirmed = 0;
    std::uint32_t shard_devices = 0;
    for (const core::population_shard_report& sr : report.shard_reports) {
        windows += sr.windows;
        failures += sr.failures;
        bits += sr.bits;
        alarms += sr.channels_in_alarm;
        escalations += sr.escalations;
        confirmed += sr.confirmed_escalations;
        shard_devices += sr.device_count;
    }
    EXPECT_EQ(report.windows, windows);
    EXPECT_EQ(report.failures, failures);
    EXPECT_EQ(report.bits, bits);
    EXPECT_EQ(report.devices_alarmed, alarms);
    EXPECT_EQ(report.escalations, escalations);
    EXPECT_EQ(report.confirmed_escalations, confirmed);
    EXPECT_EQ(shard_devices, report.devices);

    // Population-level bookkeeping.
    EXPECT_EQ(report.devices_attacked + report.devices_healthy,
              report.devices);
    std::uint32_t kind_devices = 0;
    for (const core::kind_summary& ks : report.by_kind) {
        kind_devices += ks.devices;
    }
    EXPECT_EQ(kind_devices, report.devices);
    EXPECT_LE(report.detected, report.attacked_alarmed);
    EXPECT_LE(report.attacked_alarmed, report.devices_attacked);
    EXPECT_EQ(report.alarm_latency.samples, report.detected);
    EXPECT_LE(report.confirmed_escalations, report.escalations);

    // And against the per-device records.
    ASSERT_EQ(report.device_records.size(), report.devices);
    std::uint64_t record_windows = 0;
    std::uint64_t healthy_windows = 0;
    std::uint32_t detected = 0;
    std::vector<core::population_shard_report> by_shard(
        report.shard_reports.size());
    for (std::uint32_t d = 0; d < report.devices; ++d) {
        const core::device_record& rec = report.device_records[d];
        EXPECT_EQ(rec.device, d) << "records are indexed by device";
        record_windows += rec.windows;
        ASSERT_LT(rec.shard, by_shard.size());
        by_shard[rec.shard].failures += rec.failures;
        by_shard[rec.shard].channels_in_alarm += rec.alarm ? 1 : 0;
        by_shard[rec.shard].escalations += rec.escalations;
        if (!rec.attacked) {
            healthy_windows += rec.windows;
        }
        detected += rec.detected() ? 1 : 0;
    }
    EXPECT_EQ(report.windows, record_windows);
    EXPECT_EQ(report.healthy_windows, healthy_windows);
    EXPECT_EQ(report.detected, detected);
    for (std::size_t s = 0; s < by_shard.size(); ++s) {
        const core::population_shard_report& sr = report.shard_reports[s];
        EXPECT_EQ(sr.failures, by_shard[s].failures) << "shard " << s;
        EXPECT_EQ(sr.channels_in_alarm, by_shard[s].channels_in_alarm)
            << "shard " << s;
        EXPECT_EQ(sr.escalations, by_shard[s].escalations) << "shard " << s;
    }
}

TEST(population, attacks_are_detected_with_ordered_percentiles)
{
    const core::population_report report =
        core::population_monitor(small_config()).run();
    EXPECT_GT(report.devices_attacked, 0u);
    EXPECT_GT(report.detected, 0u)
        << "half the population attacked at n=128: something must trip";
    EXPECT_GT(report.alarm_latency.samples, 0u);
    EXPECT_GE(report.alarm_latency.p50, 1u)
        << "latency is counted inclusively from the onset window";
    EXPECT_LE(report.alarm_latency.p50, report.alarm_latency.p95);
    EXPECT_LE(report.alarm_latency.p95, report.alarm_latency.p99);
    EXPECT_LE(report.alarm_latency.p99, report.alarm_latency.worst);
    EXPECT_GT(report.alarm_latency.mean, 0.0);
    EXPECT_LE(report.alarm_latency.mean,
              static_cast<double>(report.alarm_latency.worst));
}

TEST(population, false_escalation_extrapolation_recomputes)
{
    core::population_config cfg = small_config();
    cfg.device_bits_per_second = 2.0e6;
    const core::population_report report =
        core::population_monitor(cfg).run();
    ASSERT_GT(report.healthy_windows, 0u);
    const double rate = static_cast<double>(report.healthy_alarms)
        / static_cast<double>(report.healthy_windows);
    EXPECT_DOUBLE_EQ(report.false_alarm_rate_per_window, rate);
    const double windows_per_day =
        cfg.device_bits_per_second * 86400.0 / 128.0;
    EXPECT_DOUBLE_EQ(report.false_escalations_per_device_day,
                     rate * windows_per_day);
}

TEST(population, device_records_are_off_by_default)
{
    core::population_config cfg = small_config();
    cfg.keep_device_records = false;
    const core::population_report report =
        core::population_monitor(cfg).run();
    EXPECT_TRUE(report.device_records.empty());
    std::uint32_t kind_devices = 0;
    for (const core::kind_summary& ks : report.by_kind) {
        kind_devices += ks.devices;
    }
    EXPECT_EQ(kind_devices, report.devices)
        << "every device is still aggregated";
    EXPECT_EQ(report.windows, report.devices * cfg.windows_per_device);
}

TEST(population, shard_ranges_are_contiguous)
{
    core::population_config cfg = small_config();
    cfg.devices = 10;
    cfg.shards = 3; // 4 + 3 + 3
    const core::population_report report =
        core::population_monitor(cfg).run();
    ASSERT_EQ(report.shard_reports.size(), 3u);
    EXPECT_EQ(report.shard_reports[0].first_device, 0u);
    EXPECT_EQ(report.shard_reports[0].device_count, 4u);
    EXPECT_EQ(report.shard_reports[1].first_device, 4u);
    EXPECT_EQ(report.shard_reports[1].device_count, 3u);
    EXPECT_EQ(report.shard_reports[2].first_device, 7u);
    EXPECT_EQ(report.shard_reports[2].device_count, 3u);
    for (const core::device_record& rec : report.device_records) {
        const unsigned want_shard = rec.device < 4 ? 0
            : rec.device < 7                       ? 1
                                                   : 2;
        EXPECT_EQ(rec.shard, want_shard) << "device " << rec.device;
    }
}

TEST(population, configuration_is_validated)
{
    {
        core::population_config cfg = small_config();
        cfg.devices = 0;
        EXPECT_THROW(core::population_monitor{cfg}, std::invalid_argument);
    }
    {
        core::population_config cfg = small_config();
        cfg.shards = 0;
        EXPECT_THROW(core::population_monitor{cfg}, std::invalid_argument);
    }
    {
        core::population_config cfg = small_config();
        cfg.devices = 4;
        cfg.shards = 8;
        EXPECT_THROW(core::population_monitor{cfg}, std::invalid_argument);
    }
    {
        core::population_config cfg = small_config();
        cfg.windows_per_device = 0;
        EXPECT_THROW(core::population_monitor{cfg}, std::invalid_argument);
    }
    {
        // Sub-word designs cannot host per-device variation: onset and
        // churn are scheduled on word boundaries.
        core::population_config cfg = small_config();
        cfg.block.log2_n = 5;
        EXPECT_THROW(core::population_monitor{cfg}, std::invalid_argument);
    }
    {
        core::population_config cfg = small_config();
        cfg.profile.attacked_fraction = 2.0;
        EXPECT_THROW(core::population_monitor{cfg}, std::invalid_argument);
    }
}

} // namespace
