#include "faas/trace_source.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace prebake::faas {

std::vector<TraceEvent> drain(TraceSource& source) {
  std::vector<TraceEvent> events;
  while (std::optional<TraceEvent> e = source.next())
    events.push_back(std::move(*e));
  return events;
}

PoissonTraceSource::PoissonTraceSource(std::string function, double rate_hz,
                                       sim::Duration duration, sim::Rng rng)
    : function_(std::move(function)),
      rate_hz_(rate_hz),
      duration_(duration),
      rng_(rng) {
  if (rate_hz <= 0.0)
    throw std::invalid_argument{"PoissonTraceSource: rate must be > 0"};
}

std::optional<TraceEvent> PoissonTraceSource::next() {
  if (done_) return std::nullopt;
  at_ += sim::Duration::seconds_f(rng_.exponential(1.0 / rate_hz_));
  if (at_ >= duration_) {
    done_ = true;
    return std::nullopt;
  }
  return TraceEvent{at_, function_};
}

DiurnalTraceSource::DiurnalTraceSource(std::string function,
                                       double base_rate_hz,
                                       double peak_rate_hz,
                                       sim::Duration period,
                                       sim::Duration duration,
                                       std::uint64_t seed)
    : function_(std::move(function)),
      base_rate_hz_(base_rate_hz),
      peak_rate_hz_(peak_rate_hz),
      period_(period),
      duration_(duration),
      rng_(seed) {
  // A peak below the base would make the thinning acceptance ratio exceed 1
  // and silently distort the rate — reject it loudly, with both values.
  if (base_rate_hz < 0.0 || peak_rate_hz < base_rate_hz)
    throw std::invalid_argument{
        "DiurnalTraceSource: need 0 <= base_rate_hz <= peak_rate_hz "
        "(base_rate_hz=" +
        std::to_string(base_rate_hz) +
        ", peak_rate_hz=" + std::to_string(peak_rate_hz) + ")"};
  if (period <= sim::Duration{})
    throw std::invalid_argument{"DiurnalTraceSource: period must be > 0"};
  if (peak_rate_hz <= 0.0) done_ = true;  // zero rate: empty stream
}

std::optional<TraceEvent> DiurnalTraceSource::next() {
  if (done_) return std::nullopt;
  // Lewis-Shedler thinning against the peak rate, trough at t=0.
  const double mid = (base_rate_hz_ + peak_rate_hz_) / 2.0;
  const double amp = (peak_rate_hz_ - base_rate_hz_) / 2.0;
  while (true) {
    at_ += sim::Duration::seconds_f(rng_.exponential(1.0 / peak_rate_hz_));
    if (at_ >= duration_) {
      done_ = true;
      return std::nullopt;
    }
    const double phase =
        2.0 * std::numbers::pi * (at_.to_seconds() / period_.to_seconds());
    const double rate = mid - amp * std::cos(phase);
    if (rng_.uniform() * peak_rate_hz_ <= rate)
      return TraceEvent{at_, function_};
  }
}

ZipfSampler::ZipfSampler(std::uint32_t n, double s) {
  if (n == 0) throw std::invalid_argument{"ZipfSampler: need n >= 1"};
  if (s < 0.0)
    throw std::invalid_argument{"ZipfSampler: exponent must be >= 0 (s=" +
                                std::to_string(s) + ")"};
  cdf_.resize(n);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i) + 1.0, s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
  cdf_.back() = 1.0;  // guard against rounding at the top end
}

std::uint32_t ZipfSampler::sample(sim::Rng& rng) const {
  const double u = rng.uniform();  // [0, 1)
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint32_t>(it - cdf_.begin());
}

double ZipfSampler::probability(std::uint32_t rank) const {
  if (rank >= cdf_.size()) return 0.0;
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

ZipfTraceSource::ZipfTraceSource(ZipfTraceConfig config)
    : config_(std::move(config)),
      sampler_(config_.functions, config_.zipf_s),
      rng_(config_.seed) {
  if (config_.rate_hz <= 0.0)
    throw std::invalid_argument{"ZipfTraceSource: rate must be > 0"};
  if (config_.peak_rate_hz != 0.0 && config_.peak_rate_hz < config_.rate_hz)
    throw std::invalid_argument{
        "ZipfTraceSource: need rate_hz <= peak_rate_hz (rate_hz=" +
        std::to_string(config_.rate_hz) +
        ", peak_rate_hz=" + std::to_string(config_.peak_rate_hz) + ")"};
  if (config_.peak_rate_hz != 0.0 && config_.period <= sim::Duration{})
    throw std::invalid_argument{"ZipfTraceSource: period must be > 0"};
  names_.reserve(config_.functions);
  for (std::uint32_t i = 0; i < config_.functions; ++i)
    names_.push_back(config_.name_prefix + std::to_string(i));
}

std::optional<TraceEvent> ZipfTraceSource::next() {
  if (done_) return std::nullopt;
  if (config_.max_events != 0 && emitted_ >= config_.max_events) {
    done_ = true;
    return std::nullopt;
  }
  const bool diurnal = config_.peak_rate_hz > config_.rate_hz;
  const double peak = diurnal ? config_.peak_rate_hz : config_.rate_hz;
  const double mid = (config_.rate_hz + peak) / 2.0;
  const double amp = (peak - config_.rate_hz) / 2.0;
  while (true) {
    at_ += sim::Duration::seconds_f(rng_.exponential(1.0 / peak));
    if (at_ >= config_.duration) {
      done_ = true;
      return std::nullopt;
    }
    if (diurnal) {
      const double phase = 2.0 * std::numbers::pi *
                           (at_.to_seconds() / config_.period.to_seconds());
      const double rate = mid - amp * std::cos(phase);
      if (rng_.uniform() * peak > rate) continue;  // thinned out
    }
    ++emitted_;
    return TraceEvent{at_, names_[sampler_.sample(rng_)]};
  }
}

StreamReplayResult replay_trace_stream(Platform& platform, TraceSource& source) {
  // The tally outlives this call: a request still in flight at the grace
  // horizon may answer later, if the caller keeps stepping.
  struct State {
    StreamReplayResult result;
    std::uint64_t answered = 0;
  };
  auto state = std::make_shared<State>();
  sim::Simulation& sim = platform.kernel().sim();
  const sim::TimePoint start = sim.now();

  auto on_response = [state](const funcs::Response& res,
                             const RequestMetrics& m) {
    ++state->answered;
    StreamReplayResult& r = state->result;
    FunctionAggregate& fa = r.per_function[m.function];
    ++fa.requests;
    if (res.ok()) {
      ++r.responses_ok;
      ++fa.ok;
      const double total_ms = m.total.to_millis();
      fa.total_ms_sum += total_ms;
      fa.total_ms_max = std::max(fa.total_ms_max, total_ms);
      fa.queue_wait_ms_sum += m.queue_wait.to_millis();
      if (m.cold_start) {
        ++fa.cold_starts;
        fa.cold_startup_ms_sum += m.startup.to_millis();
      }
      if (m.fallback) {
        ++fa.fallback_serves;
        ++r.responses_fallback;
      }
    } else {
      ++r.responses_rejected;
      ++fa.rejected;
    }
  };

  // Each fired arrival schedules its successor before invoking, so exactly
  // one un-fired arrival is pending at any time — the engine never sees the
  // whole trace. The pending arrival holds the chain only weakly: `fire`
  // dies with this call on every exit path (an arrival that throws out of
  // sim.step() included), and an arrival left queued then does nothing.
  using Fire = std::function<void(const TraceEvent&)>;
  auto fire = std::make_shared<Fire>();
  bool exhausted = false;
  sim::TimePoint horizon;
  auto schedule_next = [&, weak = std::weak_ptr<Fire>{fire}] {
    std::optional<TraceEvent> next = source.next();
    if (!next) {
      exhausted = true;
      horizon = sim.now() + kReplayGrace;
      return;
    }
    sim.schedule_at(start + next->at, [weak, ev = std::move(*next)] {
      if (const std::shared_ptr<Fire> f = weak.lock()) (*f)(ev);
    });
  };
  *fire = [&](const TraceEvent& e) {
    schedule_next();
    ++state->result.events;
    platform.invoke(
        e.function,
        funcs::sample_request(
            platform.registry().get(e.function).spec.handler_id),
        on_response);
  };
  schedule_next();

  constexpr std::uint64_t kSampleEvery = 1024;  // executed events
  std::uint64_t steps = 0;
  auto sample = [&] {
    StreamReplayResult& r = state->result;
    r.peak_pending_events = std::max(r.peak_pending_events,
                                     sim.pending_events());
    r.peak_replicas = std::max(r.peak_replicas,
                               platform.total_replica_count());
  };
  while (!exhausted || state->answered < state->result.events) {
    if (exhausted && sim.now() >= horizon) break;  // the rest are lost
    if (!sim.step()) break;
    if (++steps % kSampleEvery == 0) sample();
  }
  sample();

  state->result.makespan = sim.now() - start;
  return std::move(state->result);
}

}  // namespace prebake::faas
