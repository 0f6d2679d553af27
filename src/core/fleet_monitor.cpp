#include "core/fleet_monitor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace otf::core {

void fleet_config::validate() const
{
    block.validate();
    if (channels == 0) {
        throw std::invalid_argument("fleet_config: need at least 1 channel");
    }
    // The per-channel policy shares health_monitor's decision rule; its
    // constructor is the authoritative validity check.
    [[maybe_unused]] const windowed_alarm policy_check(fail_threshold,
                                                      policy_window);
    if (escalated_block) {
        // The supervisor's own validation covers both designs and the
        // escalation knobs.
        supervised_config().validate();
    }
}

std::string fleet_config::lane_description() const
{
    switch (lane) {
    case ingest_lane::span:
        return "span";
    case ingest_lane::per_bit:
        return "per_bit";
    }
    return "?";
}

supervisor_config fleet_config::supervised_config() const
{
    supervisor_config sc;
    sc.baseline = block;
    sc.escalated = escalated_block.value();
    sc.alpha = alpha;
    sc.fail_threshold = fail_threshold;
    sc.policy_window = policy_window;
    sc.evidence_windows = evidence_windows;
    sc.dwell_windows = dwell_windows;
    sc.offline_alpha = offline_alpha;
    sc.offline_min_failures = offline_min_failures;
    sc.lane = lane;
    return sc;
}

bool fleet_report::same_counters(const fleet_report& other) const
{
    return channels == other.channels && windows == other.windows
        && failures == other.failures && bits == other.bits
        && channels_in_alarm == other.channels_in_alarm
        && escalations == other.escalations
        && channels_escalated == other.channels_escalated
        && confirmed_escalations == other.confirmed_escalations
        && failures_by_test == other.failures_by_test;
}

fleet_monitor::fleet_monitor(fleet_config cfg)
    : cfg_(std::move(cfg)),
      cv_((cfg_.validate(), compute_critical_values(cfg_.block, cfg_.alpha)))
{
    if (cfg_.escalated_block) {
        cv_escalated_ =
            compute_critical_values(*cfg_.escalated_block, cfg_.alpha);
    }
}

fleet_monitor::fleet_monitor(fleet_config cfg, critical_values cv,
                             std::optional<critical_values> cv_escalated)
    : cfg_((cfg.validate(), std::move(cfg))), cv_(std::move(cv)),
      cv_escalated_(std::move(cv_escalated))
{
    if (cfg_.escalated_block.has_value() != cv_escalated_.has_value()) {
        throw std::invalid_argument(
            "fleet_monitor: escalated critical values must be provided "
            "exactly when an escalated design is configured");
    }
}

namespace {

/// One channel: a monitor (or an escalation supervisor owning one), its
/// source and the windowed alarm policy.
struct channel_state {
    channel_state(const fleet_config& cfg, const critical_values& cv,
                  const std::optional<critical_values>& cv_escalated,
                  trng::entropy_source& src)
        : source(&src), alarm_policy(cfg.fail_threshold, cfg.policy_window)
    {
        if (cfg.escalated_block) {
            sup = std::make_unique<supervisor>(cfg.supervised_config(),
                                               cv, *cv_escalated);
        } else {
            mon.emplace(cfg.block, cv);
        }
        report.source_name = source->name();
    }

    /// Supervised channels own their monitor through the supervisor.
    std::unique_ptr<supervisor> sup;
    std::optional<monitor> mon;
    trng::entropy_source* source;
    channel_report report;
    windowed_alarm alarm_policy;

    monitor& active_monitor() { return sup ? sup->inner() : *mon; }

    /// Run the channel through the shared window loop; a supervisor
    /// plugs in its reconfiguration barrier and evidence tap.
    void run(const fleet_config& cfg, std::uint64_t windows)
    {
        window_hooks hooks;
        if (sup) {
            hooks.before = sup->barrier();
            hooks.tap = sup->tap();
        }
        hooks.sink = [this](const window_report& wr) {
            if (sup) {
                sup->observe(wr);
            }
            observe(wr);
        };
        run_windows(active_monitor(), *source, windows, cfg.lane, hooks);
        finish();
    }

    void observe(const window_report& wr)
    {
        ++report.windows;
        report.bits += active_monitor().config().n();
        report.sw_cycles += wr.sw_cycles;
        if (wr.sw_cycles > report.worst_sw_cycles) {
            report.worst_sw_cycles = wr.sw_cycles;
        }
        const bool failed = !wr.software.all_pass;
        if (failed) {
            ++report.failures;
            for (const test_verdict& v : wr.software.verdicts) {
                if (!v.pass) {
                    ++report.failures_by_test[v.name];
                }
            }
        }
        // The channel-local policy runs in both modes (in supervised
        // mode the supervisor's copy decides escalation; this one keeps
        // the sticky channel alarm and its rise window observable).
        alarm_policy.record(failed);
        if (alarm_policy.rose()) {
            report.first_alarm_window = wr.window_index;
        }
        report.alarm = alarm_policy.alarm();
    }

    /// Post-run bookkeeping: sentinel the never-alarmed case and fold in
    /// the supervisor's escalation telemetry.
    void finish()
    {
        if (!report.alarm) {
            report.first_alarm_window = report.windows;
        }
        if (sup) {
            const supervision_report sr = sup->report();
            report.escalations = sr.escalations;
            report.confirmed_escalations = sr.confirmed_escalations;
            report.de_escalations = sr.de_escalations;
            report.windows_escalated = sr.windows_escalated;
        }
    }
};

} // namespace

channel_report run_fleet_channel(
    const fleet_config& cfg, const critical_values& cv,
    const std::optional<critical_values>& cv_escalated,
    trng::entropy_source& source, unsigned channel, std::uint64_t windows)
{
    channel_state state(cfg, cv, cv_escalated, source);
    state.report.channel = channel;
    state.run(cfg, windows);
    return std::move(state.report);
}

unit_pool::unit_pool(unsigned workers)
    : requested_(workers != 0 ? workers
                              : std::thread::hardware_concurrency())
{
}

void unit_pool::add(unsigned shard, unsigned first, unsigned count)
{
    for (unsigned c = first; c < first + count; ++c) {
        units_.push_back(pool_unit{shard, c});
    }
}

unsigned unit_pool::workers() const
{
    const auto cap = static_cast<unsigned>(units_.size());
    return std::max(1u, std::min(requested_, cap));
}

void unit_pool::run(const unit_body& body) const
{
    const auto unit_count = units_.size();
    std::atomic<std::size_t> next{0};
    std::exception_ptr failure;
    std::mutex failure_mutex;
    const auto worker = [&](unsigned w) {
        try {
            for (std::size_t u = next.fetch_add(1); u < unit_count;
                 u = next.fetch_add(1)) {
                body(w, units_[u]);
            }
        } catch (...) {
            const std::lock_guard<std::mutex> lock(failure_mutex);
            if (!failure) {
                failure = std::current_exception();
            }
            next.store(unit_count); // drain the cursor, stop the pool
        }
    };
    const unsigned threads = workers();
    if (threads == 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned w = 0; w < threads; ++w) {
            pool.emplace_back(worker, w);
        }
        for (std::thread& t : pool) {
            t.join();
        }
    }
    if (failure) {
        std::rethrow_exception(failure);
    }
}

fleet_report fleet_monitor::run(const source_factory& make_source,
                                std::uint64_t windows_per_channel)
{
    const auto start = std::chrono::steady_clock::now();

    // Sources are built serially, in channel order, so a factory drawing
    // seeds from shared state stays deterministic.
    std::vector<std::unique_ptr<trng::entropy_source>> sources;
    sources.reserve(cfg_.channels);
    for (unsigned c = 0; c < cfg_.channels; ++c) {
        auto source = make_source(c);
        if (!source) {
            throw std::invalid_argument(
                "fleet_monitor: source factory returned null for channel "
                + std::to_string(c));
        }
        sources.push_back(std::move(source));
    }
    std::vector<channel_report> reports(cfg_.channels);

    unit_pool pool(cfg_.threads);
    pool.add(0, 0, cfg_.channels);
    pool.run([&](unsigned, const pool_unit& unit) {
        const unsigned c = unit.first;
        try {
            reports[c] = run_fleet_channel(cfg_, cv_, cv_escalated_,
                                           *sources[c], c,
                                           windows_per_channel);
        } catch (const std::exception& e) {
            // Name the offending channel: "a source threw" is
            // undebuggable in an N-channel fleet without it.
            throw std::runtime_error(
                "fleet_monitor: channel " + std::to_string(c) + " (source \""
                + sources[c]->name() + "\"): " + e.what());
        }
    });

    fleet_report fleet;
    fleet.channels = std::move(reports);
    for (const channel_report& cr : fleet.channels) {
        fleet.windows += cr.windows;
        fleet.failures += cr.failures;
        fleet.bits += cr.bits;
        fleet.channels_in_alarm += cr.alarm ? 1 : 0;
        fleet.escalations += cr.escalations;
        fleet.channels_escalated += cr.escalations > 0 ? 1 : 0;
        fleet.confirmed_escalations += cr.confirmed_escalations;
        for (const auto& [name, count] : cr.failures_by_test) {
            fleet.failures_by_test[name] += count;
        }
    }
    fleet.lane = cfg_.lane_description();
    fleet.worker_threads = pool.workers();
    fleet.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return fleet;
}

} // namespace otf::core
