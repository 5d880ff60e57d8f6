#include "rt/runtime.hpp"

#include <algorithm>
#include <stdexcept>

namespace prebake::rt {

namespace {
constexpr double kMiB = 1024.0 * 1024.0;

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / kMiB; }
}  // namespace

ManagedRuntime::ManagedRuntime(os::Kernel& kernel, os::Pid pid,
                               RuntimeCosts costs, FunctionSpec spec,
                               sim::Rng rng)
    : ManagedRuntime{kernel, pid, std::move(costs), std::move(spec),
                     std::move(rng), RuntimeProgress::kFresh} {}

ManagedRuntime::ManagedRuntime(os::Kernel& kernel, os::Pid pid,
                               RuntimeCosts costs, FunctionSpec spec,
                               sim::Rng rng, RuntimeProgress progress)
    : kernel_{&kernel},
      pid_{pid},
      costs_{std::move(costs)},
      spec_{std::move(spec)},
      rng_{std::move(rng)},
      progress_{progress} {}

ManagedRuntime ManagedRuntime::attach_restored(os::Kernel& kernel, os::Pid pid,
                                               RuntimeCosts costs,
                                               FunctionSpec spec, sim::Rng rng,
                                               bool warmed,
                                               funcs::SharedAssets& assets) {
  ManagedRuntime rt{kernel,
                    pid,
                    std::move(costs),
                    std::move(spec),
                    std::move(rng),
                    warmed ? RuntimeProgress::kWarmed : RuntimeProgress::kReady};
  rt.restored_ = true;
  rt.booted_ = true;
  rt.assets_ = &assets;
  // Post-restore fixups the runtime performs when it resumes: re-arm timers,
  // reopen the listen socket, resynchronize the clock (calibrated per spec).
  kernel.sim().advance(rt.spec_.post_restore_residual * rt.noise());
  rt.handler_ = funcs::make_handler(rt.spec_.handler_id, assets);
  if (warmed) rt.requests_served_ = 1;  // at least the warm-up request
  return rt;
}

ManagedRuntime ManagedRuntime::attach_forked(os::Kernel& kernel, os::Pid pid,
                                             RuntimeCosts costs,
                                             FunctionSpec spec, sim::Rng rng) {
  ManagedRuntime rt{kernel,        pid,
                    std::move(costs), std::move(spec),
                    std::move(rng),   RuntimeProgress::kBooted};
  rt.booted_ = true;
  // fork(2) keeps only the calling thread: the child must restart the GC /
  // compiler service threads and fix up fork-unsafe state.
  os::Process& proc = kernel.process(pid);
  for (int i = 0; static_cast<int>(proc.threads().size()) <
                  rt.costs_.service_threads + 1;
       ++i)
    proc.spawn_thread(pid + 1 + i);
  kernel.sim().advance(rt.costs_.post_fork_fixup * rt.noise());
  return rt;
}

void ManagedRuntime::bootstrap() {
  if (progress_ != RuntimeProgress::kFresh)
    throw std::logic_error{"ManagedRuntime::bootstrap: already bootstrapped"};
  os::Kernel& k = *kernel_;
  const sim::TimePoint t0 = k.sim().now();

  // JVM init: heap reservation, GC/compiler service threads, core classes.
  // The post-bootstrap base state is a function of the *runtime*, not the
  // function — every replica of every function shares these page contents,
  // which is what makes content-addressed page storage (criu/page_store.hpp)
  // effective across functions.
  constexpr std::uint64_t kRuntimeBaseSeed = 0x9E57'AB1E;
  k.sim().advance(costs_.bootstrap * noise());
  k.mmap(pid_, costs_.heap_base_bytes, os::Prot::kReadWrite, os::VmaKind::kAnon,
         "[jvm-heap]", std::make_shared<os::PatternSource>(kRuntimeBaseSeed),
         /*populate=*/true);
  k.mmap(pid_, 2 * 1024 * 1024, os::Prot::kReadWrite, os::VmaKind::kAnon,
         "[metaspace]",
         std::make_shared<os::PatternSource>(kRuntimeBaseSeed ^ 0x11eaf),
         /*populate=*/true);
  os::Process& proc = k.process(pid_);
  for (int i = 0; i < costs_.service_threads; ++i)
    proc.spawn_thread(pid_ + 1 + i);

  booted_ = true;
  progress_ = RuntimeProgress::kBooted;
  rts_time_ = k.sim().now() - t0;
}

void ManagedRuntime::app_init(funcs::SharedAssets& assets) {
  if (progress_ != RuntimeProgress::kBooted)
    throw std::logic_error{"ManagedRuntime::app_init: runtime not booted"};
  os::Kernel& k = *kernel_;
  const sim::TimePoint t0 = k.sim().now();
  assets_ = &assets;

  // Load the framework / HTTP server / eagerly referenced classes.
  if (!spec_.init_classes.empty()) {
    const std::uint64_t bytes = spec_.init_class_bytes();
    if (!spec_.classpath_archive.empty())
      k.fs().charge_read(spec_.classpath_archive, bytes);
    k.sim().advance(costs_.classload_per_mib_cold * mib(bytes) * noise());
    k.sim().advance(costs_.per_class_overhead *
                    static_cast<double>(spec_.init_classes.size()));
    const auto meta_bytes = static_cast<std::uint64_t>(
        static_cast<double>(bytes) * costs_.metadata_factor);
    const os::VmaId vma = k.mmap(
        pid_, meta_bytes, os::Prot::kReadWrite, os::VmaKind::kAnon,
        "[metaspace-init]",
        std::make_shared<os::PatternSource>(spec_.memory_seed ^ 0xC1A55),
        /*populate=*/false);
    k.fault_in_all(pid_, vma, /*write=*/true);
  }

  // Application-specific start-up I/O (e.g. the Image Resizer's 1 MiB photo).
  if (spec_.init_io_bytes > 0 && !spec_.init_io_path.empty())
    k.fs().charge_read(spec_.init_io_path, spec_.init_io_bytes);

  // Long-lived buffers allocated at init (decoded bitmaps etc.). These are
  // the reason the Image Resizer snapshot is 99.2 MB vs 13 MB for NOOP.
  if (spec_.init_extra_resident > 0) {
    const os::VmaId vma = k.mmap(
        pid_, spec_.init_extra_resident, os::Prot::kReadWrite, os::VmaKind::kAnon,
        "[app-buffers]",
        std::make_shared<os::PatternSource>(spec_.memory_seed ^ 0xBFF5),
        /*populate=*/false);
    k.fault_in_all(pid_, vma, /*write=*/true);
  }

  // Business-logic construction (real handler objects).
  handler_ = funcs::make_handler(spec_.handler_id, assets);

  // Bind the HTTP listen socket.
  os::FdDesc listen;
  listen.kind = os::FdKind::kSocket;
  listen.path = "tcp://0.0.0.0:8080";
  k.process(pid_).install_fd(listen);

  k.sim().advance(spec_.appinit_compute * noise());

  progress_ = RuntimeProgress::kReady;
  appinit_time_ = k.sim().now() - t0;
}

void ManagedRuntime::lazy_first_request(bool restored_warm_path) {
  os::Kernel& k = *kernel_;
  const std::uint64_t bytes = spec_.request_class_bytes();
  if (bytes == 0) return;

  k.sim().advance(costs_.lazy_loader_init * noise());
  if (!spec_.classpath_archive.empty())
    k.fs().charge_read(spec_.classpath_archive, bytes);
  const sim::Duration per_mib = restored_warm_path
                                    ? costs_.classload_per_mib_warm
                                    : costs_.classload_per_mib_cold;
  k.sim().advance(per_mib * mib(bytes) * noise());
  k.sim().advance(costs_.per_class_overhead *
                  static_cast<double>(spec_.request_classes.size()));

  // Class metadata becomes resident...
  const auto meta_bytes = static_cast<std::uint64_t>(
      static_cast<double>(bytes) * costs_.metadata_factor);
  if (meta_bytes > 0) {
    const os::VmaId meta = k.mmap(
        pid_, meta_bytes, os::Prot::kReadWrite, os::VmaKind::kAnon,
        "[metaspace-lazy]",
        std::make_shared<os::PatternSource>(spec_.memory_seed ^ 0x1a2b), false);
    k.fault_in_all(pid_, meta, /*write=*/true);
  }

  // ...and, for JIT-compiling runtimes, hot methods land in the code cache
  // (a pure interpreter like CPython sets these factors to zero).
  k.sim().advance(costs_.jit_per_mib * mib(bytes) * noise());
  const auto code_bytes = static_cast<std::uint64_t>(
      static_cast<double>(bytes) * costs_.code_cache_factor);
  if (code_bytes > 0) {
    const os::VmaId code = k.mmap(
        pid_, code_bytes, os::Prot::kReadExec, os::VmaKind::kAnon,
        "[code-cache]",
        std::make_shared<os::PatternSource>(spec_.memory_seed ^ 0xc0de), false);
    k.fault_in_all(pid_, code, /*write=*/false);
  }
}

// Steady-state heap churn: write-touch `request_dirty_pages` heap pages per
// request, cycling a cursor across the heap VMA so successive requests dirty
// *different* pages. This is what a live-migration pre-dump is up against —
// the dirty delta between rounds is proportional to this rate. Pages are
// already resident, so the touches re-dirty the soft-dirty bitmap without
// charging fault-in time; contents come from the same PatternSource, so
// snapshot digests stay valid.
void ManagedRuntime::dirty_heap_pages() {
  os::Kernel& k = *kernel_;
  if (dirty_vma_ == 0) {
    for (const os::Vma& v : k.process(pid_).mm().vmas()) {
      if (v.name == "[jvm-heap]" || (dirty_vma_ == 0 && v.name == "[app-buffers]"))
        dirty_vma_ = v.id;
      if (v.name == "[jvm-heap]") break;
    }
    if (dirty_vma_ == 0) return;  // nothing writable to churn
  }
  const os::Vma* vma = k.process(pid_).mm().find(dirty_vma_);
  if (vma == nullptr || vma->page_count() == 0) return;
  const std::uint64_t total = vma->page_count();
  std::uint64_t left = std::min<std::uint64_t>(spec_.request_dirty_pages, total);
  while (left > 0) {
    const std::uint64_t run = std::min(left, total - dirty_cursor_);
    k.fault_in(pid_, dirty_vma_, dirty_cursor_, run, /*write=*/true);
    dirty_cursor_ = (dirty_cursor_ + run) % total;
    left -= run;
  }
}

funcs::Response ManagedRuntime::handle(const funcs::Request& req) {
  if (progress_ != RuntimeProgress::kReady && progress_ != RuntimeProgress::kWarmed)
    throw std::logic_error{"ManagedRuntime::handle: runtime not ready"};
  os::Kernel& k = *kernel_;
  const sim::TimePoint t0 = k.sim().now();

  if (progress_ == RuntimeProgress::kReady) {
    lazy_first_request(restored_);
    progress_ = RuntimeProgress::kWarmed;
  }

  // Warm-path service time (the Figure 7 distributions).
  k.sim().advance(sim::Duration::nanos(static_cast<std::int64_t>(
      static_cast<double>(spec_.warm_service_median.nanos_count()) *
      rng_.lognormal_median(1.0, spec_.service_sigma))));

  if (spec_.request_dirty_pages > 0) dirty_heap_pages();

  funcs::Response res = handler_->handle(req);
  ++requests_served_;
  last_service_time_ = k.sim().now() - t0;
  return res;
}

}  // namespace prebake::rt
