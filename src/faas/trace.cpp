#include "faas/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numbers>
#include <sstream>
#include <stdexcept>

#include "faas/trace_source.hpp"

namespace prebake::faas {

std::vector<TraceEvent> parse_trace_csv(const std::string& text) {
  std::vector<TraceEvent> events;
  std::size_t line_no = 0;
  std::istringstream in{text};
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // Strip comments and whitespace-only lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t") == std::string::npos) continue;

    const std::size_t comma = line.find(',');
    if (comma == std::string::npos)
      throw std::invalid_argument{"trace line " + std::to_string(line_no) +
                                  ": missing comma"};
    const std::string_view ms_text{line.data(), comma};
    double ms = 0.0;
    try {
      std::size_t used = 0;
      ms = std::stod(std::string{ms_text}, &used);
      if (used != ms_text.size()) throw std::invalid_argument{""};
    } catch (const std::exception&) {
      throw std::invalid_argument{"trace line " + std::to_string(line_no) +
                                  ": bad offset '" + std::string{ms_text} + "'"};
    }
    if (ms < 0.0)
      throw std::invalid_argument{"trace line " + std::to_string(line_no) +
                                  ": negative offset"};
    std::string function = line.substr(comma + 1);
    const std::size_t b = function.find_first_not_of(" \t");
    const std::size_t e = function.find_last_not_of(" \t");
    if (b == std::string::npos)
      throw std::invalid_argument{"trace line " + std::to_string(line_no) +
                                  ": empty function name"};
    function = function.substr(b, e - b + 1);
    events.push_back(TraceEvent{sim::Duration::millis_f(ms), std::move(function)});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.at < b.at;
                   });
  return events;
}

std::string format_trace_csv(std::span<const TraceEvent> events) {
  std::ostringstream out;
  out << "# offset_ms,function\n";
  for (const TraceEvent& e : events) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", e.at.to_millis());
    out << buf << ',' << e.function << '\n';
  }
  return out.str();
}

std::vector<TraceEvent> generate_poisson_trace(const std::string& function,
                                               double rate_hz,
                                               sim::Duration duration,
                                               std::uint64_t seed) {
  if (rate_hz <= 0.0)
    throw std::invalid_argument{"generate_poisson_trace: rate must be > 0 "
                                "(rate_hz=" + std::to_string(rate_hz) + ")"};
  // Materializing wrapper over the streaming source; both draw the
  // identical RNG sequence, so a streamed and a materialized trace from
  // the same seed are the same trace (pinned by the TraceStream suite).
  PoissonTraceSource source{function, rate_hz, duration, sim::Rng{seed}};
  return drain(source);
}

std::vector<TraceEvent> generate_diurnal_trace(const std::string& function,
                                               double base_rate_hz,
                                               double peak_rate_hz,
                                               sim::Duration period,
                                               sim::Duration duration,
                                               std::uint64_t seed) {
  // A peak below the base flips the thinning acceptance ratio above 1 and
  // silently distorts the generated rate; report both offending values.
  if (base_rate_hz < 0.0 || peak_rate_hz < base_rate_hz)
    throw std::invalid_argument{
        "generate_diurnal_trace: need 0 <= base_rate_hz <= peak_rate_hz "
        "(base_rate_hz=" + std::to_string(base_rate_hz) +
        ", peak_rate_hz=" + std::to_string(peak_rate_hz) + ")"};
  if (period <= sim::Duration{})
    throw std::invalid_argument{"generate_diurnal_trace: period must be > 0"};
  DiurnalTraceSource source{function, base_rate_hz, peak_rate_hz,
                            period,   duration,     seed};
  return drain(source);
}

}  // namespace prebake::faas
