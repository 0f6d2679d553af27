// Multi-channel fleet monitor: many independent on-the-fly monitors over a
// thread pool.
//
// The paper deploys one testing block next to one TRNG.  A platform that
// serves many TRNG channels (multiple oscillator banks on one FPGA, or many
// devices reporting into one supervisor) replicates that per-channel
// pipeline; nothing is shared between channels except the worker pool, so
// the aggregated result is a pure function of the per-channel seeds --
// independent of thread count and scheduling.
//
// Execution is *fused*: the worker thread that owns a channel generates
// its words and tests them in the same pass on the same core, through
// the shared window loop (core::run_windows).  Groups of 64 eligible
// channels additionally ride the bit-sliced lane through a 64x64-word
// tile (one transpose per tile, hw::sliced_block::feed_tile).  The
// per-bit lane is the differential oracle the fast lanes must match bit
// for bit (tests/test_fleet_monitor.cpp pins the equivalence).
// Scheduling is one unit_pool, shared with the population layer
// (core/population.hpp): a table of work units -- whole sliced groups,
// then one-channel units -- that the workers claim off one atomic cursor.
//
// Telemetry is aggregated two ways: per channel (windows, failures,
// failures-by-test, an AIS-31-style windowed alarm) and fleet-wide
// (totals, channels in alarm, the lane actually used, wall-clock
// throughput).
#pragma once

#include "core/critical_values.hpp"
#include "core/monitor.hpp"
#include "core/supervisor.hpp"
#include "hw/config.hpp"
#include "trng/entropy_source.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace otf::core {

/// \brief Configuration of a monitor fleet.  Every channel runs the same
/// hardware design point; critical values are inverted once and shared.
struct fleet_config {
    /// Per-channel hardware design (testing block configuration).
    hw::block_config block;
    /// Per-test level of significance for every channel.
    double alpha = 0.01;
    /// Number of independent monitor channels.
    unsigned channels = 4;
    /// Worker threads; 0 picks the hardware concurrency.
    /// These are the *only* threads: each worker generates and tests its
    /// channels in one pass.  Thread count never changes the report,
    /// only the wall-clock time.
    unsigned threads = 0;
    /// Ingestion lane for every channel (span fast lane by default).
    /// The per-bit lane is kept selectable as the equivalence oracle:
    /// all lanes must produce identical reports for the same seeds.
    /// `sliced` batches eligible channels (cheap always-on designs, no
    /// supervision) 64-wide through hw::sliced_block; ineligible
    /// channels fall back to the span lane.
    ingest_lane lane = ingest_lane::span;
    /// AIS-31-style per-channel alarm: raise when at least
    /// `fail_threshold` of the last `policy_window` window verdicts
    /// failed.  Mirrors health_monitor::policy.
    unsigned fail_threshold = 2;
    unsigned policy_window = 8;

    /// Adaptive escalation (optional): when set, every channel runs
    /// under a core::supervisor -- `block` is the cheap always-on
    /// baseline, and this is the heavy design the channel's live testing
    /// block is reprogrammed to (through the register-map write path) on
    /// a k-of-w alarm; the channel alarm policy doubles as the
    /// escalation trigger.  Critical values for both designs are
    /// inverted once and shared by every channel.
    std::optional<hw::block_config> escalated_block;
    /// Supervisor knobs (used with escalated_block only): evidence ring
    /// depth, clean dwell before de-escalation, the offline confirmation
    /// significance level, and how many failing offline P-values confirm
    /// an escalation.
    std::size_t evidence_windows = 8;
    std::uint64_t dwell_windows = 16;
    double offline_alpha = 0.01;
    unsigned offline_min_failures = 2;

    /// \throws std::invalid_argument on an empty fleet, an inconsistent
    /// alarm policy, or a non-streamable supervised design (supervision
    /// needs n >= 64 for both tiers).
    void validate() const;

    /// The per-channel supervisor policy this configuration implies.
    /// \throws std::bad_optional_access unless escalated_block is set
    supervisor_config supervised_config() const;

    /// True when this configuration routes channel groups of 64 through
    /// the bit-sliced lane (hw::sliced_block): lane == sliced, at least
    /// 64 channels, no supervision, a word-granular window and a test set limited to
    /// the cheap always-on tests (frequency, runs).  Leftover and
    /// ineligible channels ride the span lane instead.
    bool uses_sliced_lane() const;

    /// The lane this configuration *actually* runs, fallback included:
    /// "span", "per_bit", "sliced" (all groups of 64 sliced),
    /// "sliced+span" (leftover channels on the span lane), or
    /// "span (sliced fallback)" when lane == sliced but
    /// uses_sliced_lane() is false -- the silent degradations, made
    /// visible in the reports.
    std::string lane_description() const;
};

/// \brief Telemetry of one channel after a fleet run.  Every field is a
/// deterministic function of the channel's source.
struct channel_report {
    unsigned channel = 0;
    std::string source_name;
    std::uint64_t windows = 0;
    std::uint64_t failures = 0;       ///< windows with any failing test
    bool alarm = false;               ///< windowed-policy alarm (sticky)
    /// Window index at which the policy alarm first rose; == `windows`
    /// when it never did (the alarm path as an observable event, not
    /// just the sticky boolean).
    std::uint64_t first_alarm_window = 0;
    std::uint64_t bits = 0;           ///< bits tested
    std::uint64_t sw_cycles = 0;      ///< MCU cycles across all windows
    std::uint64_t worst_sw_cycles = 0;///< slowest single software pass
    /// Escalation telemetry (supervised fleets only; all zero
    /// otherwise): on-the-fly reconfigurations of the channel's block.
    unsigned escalations = 0;
    unsigned confirmed_escalations = 0; ///< offline battery agreed
    unsigned de_escalations = 0;
    std::uint64_t windows_escalated = 0;
    /// Failure count per test name across the channel's run.
    std::map<std::string, std::uint64_t> failures_by_test;

    friend bool operator==(const channel_report&,
                           const channel_report&) = default;
};

/// \brief Aggregated fleet telemetry: per-channel reports in channel order
/// plus fleet-wide totals.  Everything except `seconds` is deterministic.
struct fleet_report {
    std::vector<channel_report> channels;
    std::uint64_t windows = 0;
    std::uint64_t failures = 0;
    std::uint64_t bits = 0;
    unsigned channels_in_alarm = 0;
    unsigned escalations = 0;         ///< fleet-wide escalation total
    unsigned channels_escalated = 0;  ///< channels that escalated at all
    unsigned confirmed_escalations = 0; ///< offline battery agreed
    std::map<std::string, std::uint64_t> failures_by_test;
    /// How the run executed: the lane actually used with fallbacks
    /// spelled out (fleet_config::lane_description -- a silent
    /// sliced-to-span degradation is visible here) and the thread budget
    /// it really spent.  Deterministic given the configuration, but
    /// descriptive of the execution rather than the data, so outside
    /// same_counters: the determinism guarantee compares *across* lanes
    /// and thread counts.
    std::string lane;
    unsigned worker_threads = 0; ///< pool size after capping
    /// Wall-clock duration of the run (the only nondeterministic field).
    double seconds = 0.0;

    /// Aggregate simulation throughput over the wall clock.
    double bits_per_second() const
    {
        return seconds > 0.0 ? static_cast<double>(bits) / seconds : 0.0;
    }

    /// Everything except the wall clock and the execution description --
    /// what the determinism guarantee ("same seeds, any thread count,
    /// any lane") covers.
    bool same_counters(const fleet_report& other) const;
};

/// \brief Runs N independent monitor channels over a worker pool.
///
/// Usage:
///   core::fleet_monitor fleet(cfg);
///   auto report = fleet.run(
///       [](unsigned c) { return std::make_unique<trng::ideal_source>(c); },
///       /*windows_per_channel=*/16);
class fleet_monitor {
public:
    /// Builds the entropy source of channel `channel`; called once per
    /// channel, in channel order, before any worker starts (so factories
    /// may carry non-thread-safe state).
    using source_factory =
        std::function<std::unique_ptr<trng::entropy_source>(unsigned)>;

    /// \brief Validate the configuration and invert the critical values
    /// once for the whole fleet.
    explicit fleet_monitor(fleet_config cfg);

    /// \brief Reuse already-inverted critical values (population shards:
    /// every shard runs the same design point, so the inversion is done
    /// once for the whole population, not once per shard).
    /// \param cv           bounds for `cfg.block` at `cfg.alpha`
    /// \param cv_escalated bounds for `cfg.escalated_block`; required
    ///        exactly when that design is set
    /// \throws std::invalid_argument when the escalated design and its
    /// bounds do not match up
    fleet_monitor(fleet_config cfg, critical_values cv,
                  std::optional<critical_values> cv_escalated);

    const fleet_config& config() const { return cfg_; }
    const critical_values& bounds() const { return cv_; }

    /// \brief Run every channel for `windows_per_channel` windows and
    /// aggregate.  Blocks until the fleet is done.
    /// \throws std::invalid_argument naming the channel index when the
    /// factory returns null
    /// \throws std::runtime_error naming the channel index and source of
    /// a channel whose pipeline throws mid-run (the first failing channel
    /// in claim order; the fleet drains and joins before rethrowing).
    fleet_report run(const source_factory& make_source,
                     std::uint64_t windows_per_channel);

private:
    fleet_config cfg_;
    critical_values cv_;
    /// Escalated-design bounds, inverted once for the whole fleet
    /// (supervised fleets only).
    std::optional<critical_values> cv_escalated_;
};

/// \brief Run one channel to completion on the calling thread and return
/// its report.  This is the per-channel work unit fleet_monitor::run
/// executes on its unit_pool, exported so the population monitor can run
/// devices directly on the same pool without instantiating a fleet per
/// shard.  Runs the channel through core::run_windows on
/// cfg.lane, under a supervisor when cfg.escalated_block is set.
/// \param cfg          a *validated* fleet configuration; channels /
///        threads are ignored here
/// \param cv           bounds for cfg.block at cfg.alpha
/// \param cv_escalated bounds for cfg.escalated_block; required exactly
///        when that design is set
/// \param source       the channel's entropy source (borrowed)
/// \param channel      channel id stamped into the report
/// \param windows      windows to run (0 runs nothing)
/// \throws std::runtime_error naming the source when it runs dry
channel_report run_fleet_channel(
    const fleet_config& cfg, const critical_values& cv,
    const std::optional<critical_values>& cv_escalated,
    trng::entropy_source& source, unsigned channel,
    std::uint64_t windows);

/// \brief Run one 64-channel bit-sliced group to completion on the
/// calling thread: the 64x64-word tile pipeline (generate one tile,
/// transpose once, feed all planes -- hw::sliced_block::feed_tile).
/// cfg.uses_sliced_lane() must hold.  reports[i] receives channel
/// `first_channel + i`'s outcome, bit-identical to the scalar lanes for
/// the same seeds.
/// \param cfg           a *validated* sliced-eligible configuration
/// \param cv            bounds for cfg.block at cfg.alpha
/// \param sources       64 non-null sources (borrowed), one per lane
/// \param first_channel channel id of lane 0 (ids are consecutive)
/// \param windows       windows to run per channel
/// \param reports       destination for 64 channel reports
void run_fleet_sliced_group(const fleet_config& cfg,
                            const critical_values& cv,
                            trng::entropy_source* const* sources,
                            unsigned first_channel, std::uint64_t windows,
                            channel_report* reports);

/// \brief One schedulable unit of a unit_pool: `count` consecutive
/// channels from `first`, all in reporting group `shard` -- either a whole
/// bit-sliced group (count == hw::sliced_block::lanes) or one scalar
/// channel (count == 1).
struct pool_unit {
    unsigned shard = 0;
    unsigned first = 0;
    unsigned count = 1;
};

/// \brief The worker pool behind fleet_monitor::run and
/// population_monitor::run.  Units are independent, so any assignment of
/// units to workers gives the same per-channel results: the pool only
/// decides the wall-clock time.
///
/// Usage:
///   core::unit_pool pool(threads);
///   pool.add(0, 0, channels, cfg.uses_sliced_lane());
///   pool.run([&](unsigned worker, const core::pool_unit& u) { ... });
class unit_pool {
public:
    /// Runs one unit on worker `worker` (0 <= worker < workers()).
    using unit_body = std::function<void(unsigned worker, const pool_unit&)>;

    /// \param workers requested pool size; 0 picks the hardware
    /// concurrency
    explicit unit_pool(unsigned workers);

    /// Append channels [first, first + count) of reporting group `shard`:
    /// whole 64-channel sliced groups from the front when `sliced`, then
    /// one unit per remaining channel.
    void add(unsigned shard, unsigned first, unsigned count, bool sliced);

    const std::vector<pool_unit>& units() const { return units_; }

    /// Threads a run uses: the request capped at the unit count, at
    /// least 1.
    unsigned workers() const;

    /// \brief Run `body` once on every unit.  Workers claim units off one
    /// atomic cursor; a single worker runs inline on the calling thread.
    /// \throws the first exception a body throws, after the cursor is
    /// drained (no new unit starts) and every worker has joined
    void run(const unit_body& body) const;

private:
    unsigned requested_;
    std::vector<pool_unit> units_;
};

} // namespace otf::core
