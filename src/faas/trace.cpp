#include "faas/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

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

}  // namespace prebake::faas
