#include "core/fleet_monitor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

namespace otf::core {

void fleet_config::validate() const
{
    block.validate();
    if (channels == 0) {
        throw std::invalid_argument("fleet_config: need at least 1 channel");
    }
    // The windowed_alarm constructor is the authoritative validity check
    // of the per-channel policy.
    [[maybe_unused]] const windowed_alarm policy_check(fail_threshold,
                                                      policy_window);
    if (lane == ingest_lane::span && block.n() < 64) {
        // The span lane packs whole 64-bit words; only the per-bit lane
        // clocks a sub-word window in one bit at a time.
        throw std::invalid_argument(
            "fleet_config: design \"" + block.name + "\" has n = "
            + std::to_string(block.n())
            + " bits, below one 64-bit word; the span lane needs n >= 64 "
              "(use the per_bit lane)");
    }
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

channel_runner::channel_runner(
    const fleet_config& cfg, const critical_values& cv,
    const std::optional<critical_values>& cv_escalated)
    : lane_(cfg.lane), policy_(cfg.fail_threshold, cfg.policy_window)
{
    if (cfg.escalated_block) {
        sup_.emplace(cfg.supervised_config(), cv, *cv_escalated);
    } else {
        plain_.emplace(cfg.block, cv);
    }
}

channel_report channel_runner::run(trng::entropy_source& source,
                                   unsigned channel, std::uint64_t windows,
                                   const window_hooks& caller)
{
    // Start over: the previous run may have thrown mid-window or ended
    // escalated.
    if (sup_) {
        sup_->reset();
    } else {
        plain_->reset();
    }
    policy_.reset();
    monitor& mon = sup_ ? sup_->inner() : *plain_;

    channel_report report;
    report.channel = channel;
    report.source_name = source.name();

    // Each hook captures one pointer, which fits std::function's inline
    // buffer: building the hooks allocates nothing.
    struct run_context {
        channel_runner& self;
        monitor& mon;
        channel_report& report;
        const window_hooks& caller;
    } ctx{*this, mon, report, caller};
    window_hooks hooks;
    hooks.before = [&ctx](std::uint64_t next) {
        if (ctx.caller.before) {
            ctx.caller.before(next);
        }
        if (ctx.self.sup_) {
            ctx.self.sup_->at_barrier(next);
        }
    };
    hooks.tap = [&ctx](std::uint64_t index, const std::uint64_t* words,
                       std::size_t nwords) {
        if (ctx.caller.tap) {
            ctx.caller.tap(index, words, nwords);
        }
        if (ctx.self.sup_) {
            ctx.self.sup_->capture(index, words, nwords);
        }
    };
    hooks.sink = [&ctx](const window_report& wr) {
        channel_report& report = ctx.report;
        if (ctx.self.sup_) {
            ctx.self.sup_->observe(wr);
        }
        ++report.windows;
        report.bits += ctx.mon.config().n();
        report.sw_cycles += wr.sw_cycles;
        report.worst_sw_cycles =
            std::max(report.worst_sw_cycles, wr.sw_cycles);
        const bool failed = !wr.software.all_pass;
        if (failed) {
            ++report.failures;
            for (const test_verdict& v : wr.software.verdicts) {
                if (!v.pass) {
                    ++report.failures_by_test[v.id];
                }
            }
        }
        ctx.self.policy_.record(failed);
        if (ctx.self.policy_.rose()) {
            report.first_alarm_window = wr.window_index;
        }
        if (ctx.caller.sink) {
            ctx.caller.sink(wr);
        }
    };
    run_windows(mon, source, windows, lane_, hooks);

    report.alarm = policy_.alarm();
    if (!report.alarm) {
        report.first_alarm_window = report.windows;
    }
    if (sup_) {
        report.escalations = sup_->escalations();
        report.confirmed_escalations = sup_->confirmed_escalations();
        report.de_escalations = sup_->de_escalations();
        report.windows_escalated = sup_->windows_escalated();
    }
    return report;
}

channel_report run_fleet_channel(
    const fleet_config& cfg, const critical_values& cv,
    const std::optional<critical_values>& cv_escalated,
    trng::entropy_source& source, unsigned channel, std::uint64_t windows,
    const window_hooks& hooks)
{
    return channel_runner(cfg, cv, cv_escalated)
        .run(source, channel, windows, hooks);
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
    // One channel runner per worker, built on first use by that worker.
    std::vector<std::unique_ptr<channel_runner>> runners(pool.workers());
    pool.run([&](unsigned w, const pool_unit& unit) {
        const unsigned c = unit.first;
        try {
            if (!runners[w]) {
                runners[w] = std::make_unique<channel_runner>(
                    cfg_, cv_, cv_escalated_);
            }
            reports[c] = runners[w]->run(*sources[c], c,
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
        fleet.failures_by_test += cr.failures_by_test;
    }
    fleet.lane = cfg_.lane_description();
    fleet.worker_threads = pool.workers();
    fleet.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return fleet;
}

} // namespace otf::core
