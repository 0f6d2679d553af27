#include "core/monitor.hpp"

#include <stdexcept>
#include <string>

namespace otf::core {

monitor::monitor(hw::block_config cfg, double alpha, sw16::cycle_model mcu)
    : monitor(cfg, compute_critical_values(cfg, alpha), std::move(mcu))
{
}

monitor::monitor(hw::block_config cfg, critical_values cv,
                 sw16::cycle_model mcu)
    : block_(cfg), runner_(cfg, std::move(cv)), cpu_(16),
      mcu_(std::move(mcu))
{
}

window_report monitor::finish_window()
{
    block_.finish();

    window_report report{
        .window_index = windows_,
        .software = runner_.run(block_.registers(), cpu_),
        .generation_cycles = block_.config().n(),
    };
    report.sw_cycles = mcu_.cycles(report.software.total_ops);

    ++windows_;
    block_.restart();
    return report;
}

window_report monitor::test_window(trng::entropy_source& source)
{
    const std::uint64_t n = block_.config().n();
    for (std::uint64_t i = 0; i < n; ++i) {
        block_.feed(source.next_bit());
    }
    return finish_window();
}

window_report monitor::test_sequence(const bit_sequence& seq)
{
    if (seq.size() != block_.config().n()) {
        throw std::invalid_argument(
            "monitor: sequence length must equal the design's n ("
            + std::to_string(block_.config().n()) + " bits for \""
            + block_.config().name + "\", got "
            + std::to_string(seq.size()) + ")");
    }
    for (std::size_t i = 0; i < seq.size(); ++i) {
        block_.feed(seq[i]);
    }
    return finish_window();
}

window_report monitor::test_packed(const std::uint64_t* words,
                                   std::size_t nwords, ingest_lane lane)
{
    if (nwords * 64 != block_.config().n()) {
        throw std::invalid_argument(
            "monitor: word buffer must hold exactly the design's n ("
            + std::to_string(block_.config().n()) + " bits for \""
            + block_.config().name + "\", got "
            + std::to_string(nwords * 64) + ")");
    }
    feed_packed(words, nwords, lane);
    return finish_window();
}

void monitor::feed_packed(const std::uint64_t* words, std::size_t nwords,
                          ingest_lane lane)
{
    switch (lane) {
    case ingest_lane::span:
        block_.feed_span(words, nwords * 64);
        break;
    case ingest_lane::per_bit:
        for (std::size_t j = 0; j < nwords; ++j) {
            for (unsigned i = 0; i < 64; ++i) {
                block_.feed(((words[j] >> i) & 1u) != 0);
            }
        }
        break;
    }
}

window_report monitor::finish_packed()
{
    return finish_window();
}

void run_windows(monitor& mon, trng::entropy_source& source,
                 std::uint64_t windows, ingest_lane lane,
                 const window_hooks& hooks)
{
    std::vector<std::uint64_t> staging;
    for (std::uint64_t w = 0; w < windows; ++w) {
        if (hooks.before) {
            // No window is in flight: the hook may reprogram the design.
            hooks.before(mon.windows_tested());
        }
        const std::uint64_t n = mon.config().n();
        window_report wr;
        if (n < 64 && lane == ingest_lane::per_bit) {
            wr = mon.test_window(source);
        } else {
            // Re-read per window: a reconfiguring barrier may have
            // changed the length.
            const auto nwords = static_cast<std::size_t>(n / 64);
            staging.resize(nwords);
            std::size_t filled = 0;
            while (filled < nwords) {
                const std::size_t got = source.fill_words_available(
                    staging.data() + filled, nwords - filled);
                if (got == 0) {
                    throw std::runtime_error(
                        "source \"" + source.name() + "\" ran dry after "
                        + std::to_string(w) + " of "
                        + std::to_string(windows) + " windows");
                }
                filled += got;
            }
            if (hooks.tap) {
                hooks.tap(mon.windows_tested(), staging.data(), nwords);
            }
            wr = mon.test_packed(staging.data(), nwords, lane);
        }
        if (hooks.sink) {
            hooks.sink(wr);
        }
    }
}

void monitor::reconfigure(const hw::block_config& target,
                          critical_values cv)
{
    block_.reprogram(target);
    runner_ = software_runner(block_.config(), std::move(cv));
}

void monitor::reconfigure(const hw::block_config& target, double alpha)
{
    reconfigure(target, compute_critical_values(target, alpha));
}

windowed_alarm::windowed_alarm(unsigned threshold, unsigned window)
    : threshold_(threshold), window_(window)
{
    if (threshold == 0 || window == 0 || threshold > window) {
        throw std::invalid_argument(
            "windowed_alarm: need 0 < fail_threshold <= window");
    }
}

bool windowed_alarm::record(bool failed)
{
    recent_.push_back(failed);
    recent_failures_ += failed ? 1 : 0;
    if (recent_.size() > window_) {
        recent_failures_ -= recent_.front() ? 1 : 0;
        recent_.pop_front();
    }
    rose_ = !alarm_ && recent_failures_ >= threshold_;
    if (recent_failures_ >= threshold_) {
        alarm_ = true;
    }
    return alarm_;
}

void windowed_alarm::reset()
{
    recent_.clear();
    recent_failures_ = 0;
    alarm_ = false;
    rose_ = false;
}

std::vector<bool> windowed_alarm::history() const
{
    return std::vector<bool>(recent_.begin(), recent_.end());
}

void windowed_alarm::restore(const std::vector<bool>& history,
                             bool sticky_alarm)
{
    if (history.size() > window_) {
        throw std::invalid_argument(
            "windowed_alarm: checkpoint history of "
            + std::to_string(history.size())
            + " verdicts exceeds the policy window of "
            + std::to_string(window_));
    }
    recent_.assign(history.begin(), history.end());
    recent_failures_ = 0;
    for (const bool failed : recent_) {
        recent_failures_ += failed ? 1 : 0;
    }
    alarm_ = sticky_alarm;
    rose_ = false;
}

} // namespace otf::core
