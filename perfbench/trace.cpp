#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_ns - spans[i].start_ns;
  // One thread records every span, so siblings never overlap and a parent's
  // children cover disjoint parts of it.
  for (const Span& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  return self;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  static_assert(sizeof(Span) == 32);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error{"cannot write " + path};
  std::string header = "perfbench-spans 1 count=" +
                       std::to_string(spans.size()) +
                       " record=32 fields=start_ns:i64,end_ns:i64,request:u32,"
                       "parent:i32,replicas_started:u8,replicas_reclaimed:u8,"
                       "template_clones:u8,templates_materialized:u8,kind:u8,"
                       "pad:3 kinds=";
  for (std::size_t k = 0; k < std::size(kKinds); ++k)
    header += (k == 0 ? "" : ",") + std::string{kKinds[k].name};
  header += '\n';
  std::fwrite(header.data(), 1, header.size(), f);
  std::fwrite(spans.data(), sizeof(Span), spans.size(), f);
  if (std::fclose(f) != 0) throw std::runtime_error{"cannot write " + path};
}

}  // namespace perfbench
