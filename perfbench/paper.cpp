#include "bench.hpp"
#include "exp/calibration.hpp"

namespace perfbench {

namespace {

// Far above any request index, so bake streams never alias request streams.
constexpr std::uint64_t kBakeStream = std::uint64_t{1} << 40;
constexpr std::uint64_t kWarmStream = (std::uint64_t{1} << 40) + 16;
constexpr std::uint64_t kInputStream = (std::uint64_t{1} << 40) + 32;

}  // namespace

PaperBed::PaperBed()
    : kernel{sim, exp::testbed_costs()},
      startup{kernel, exp::testbed_runtime(), assets},
      builder{kernel, startup} {}

std::unique_ptr<PaperBed> setup_paper(std::uint64_t seed, Recorder& rec,
                                      HostClock& clock) {
  auto bed = std::make_unique<PaperBed>();
  const std::pair<rt::FunctionSpec, double> fns[] = {
      {exp::noop_spec(), 62.0},
      {exp::markdown_spec(), 53.0},
      {exp::image_resizer_spec(), 87.0},
  };
  core::PrebakeConfig prebake;
  prebake.policy = core::SnapshotPolicy::warmup(1);
  for (std::size_t i = 0; i < std::size(fns); ++i) {
    const std::int32_t span = rec.begin(Kind::kBake);
    faas::BuildResult built =
        bed->builder.build(fns[i].first, prebake,
                           sim::Rng{sim::splitmix64(seed, kBakeStream + i)});
    rec.end(span);
    bed->functions.push_back(
        PaperFunction{fns[i].first, fns[i].second, std::move(built)});
    clock.tick(i + 1);
  }
  // Page-cache warm-up: one throwaway start and request per function.
  for (std::size_t i = 0; i < bed->functions.size(); ++i) {
    const PaperFunction& fn = bed->functions[i];
    const std::int32_t span = rec.begin(Kind::kWarmup);
    core::PrebakedStartOptions options;
    options.restore.fs_prefix = fn.built.snapshot->fs_prefix;
    core::ReplicaProcess warm = bed->startup.start_prebaked(
        fn.built.spec, fn.built.snapshot->images, options,
        sim::Rng{sim::splitmix64(seed, kWarmStream + i)});
    (void)warm.runtime->handle(funcs::sample_request(fn.built.spec.handler_id));
    bed->startup.reclaim(warm);
    rec.end(span);
    clock.tick(std::size(fns) + i + 1);
  }
  return bed;
}

std::vector<funcs::Request> markdown_requests(std::uint64_t seed,
                                              std::size_t count) {
  static const char* const kWords[] = {
      "processor", "manycore", "framework", "cache",   "coherence",
      "simulate",  "openpiton", "memory",   "network", "research",
      "platform",  "tile",      "router",   "verilog", "benchmark",
      "scale",     "core",      "thread",   "design",  "release"};
  sim::Rng rng{sim::splitmix64(seed, kInputStream)};
  auto words = [&](int lo, int hi) {
    std::string s;
    const auto n = rng.uniform_int(lo, hi);
    for (std::int64_t i = 0; i < n; ++i) {
      if (i > 0) s += ' ';
      s += kWords[rng.next_below(std::size(kWords))];
    }
    return s;
  };
  std::vector<funcs::Request> out;
  for (std::size_t d = 0; d < count; ++d) {
    funcs::Request req = funcs::sample_request("markdown");
    std::string doc;
    while (doc.size() < 24 * 1024) {
      switch (rng.next_below(6)) {
        case 0:
          doc += std::string(static_cast<std::size_t>(rng.uniform_int(1, 3)),
                             '#') +
                 ' ' + words(2, 5) + "\n\n";
          break;
        case 1:
          doc += words(8, 30) + " **" + words(1, 3) + "** and *" +
                 words(1, 2) + "* see [" + words(1, 2) +
                 "](https://example.org/" + words(1, 1) + ").\n\n";
          break;
        case 2:
          for (std::int64_t i = rng.uniform_int(2, 6); i > 0; --i)
            doc += "- " + words(3, 9) + "\n";
          doc += "\n";
          break;
        case 3:
          doc += "```bash\n" + words(2, 6) + "\n" + words(2, 6) + "\n```\n\n";
          break;
        case 4:
          doc += "> " + words(6, 16) + "\n\n";
          break;
        default:
          for (std::int64_t i = 1, n = rng.uniform_int(2, 5); i <= n; ++i)
            doc += std::to_string(i) + ". " + words(2, 6) + "\n";
          doc += "\n---\n\n";
          break;
      }
    }
    req.body = std::move(doc);
    out.push_back(std::move(req));
  }
  return out;
}

}  // namespace perfbench
