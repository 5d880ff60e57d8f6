#include "core/startup.hpp"

#include <algorithm>
#include <stdexcept>

namespace prebake::core {

StartupService::StartupService(os::Kernel& kernel, rt::RuntimeCosts costs,
                               funcs::SharedAssets& assets)
    : kernel_{&kernel}, costs_{std::move(costs)}, assets_{&assets} {
  // The launcher models the platform-side parent (watchdog / deployer agent)
  // that fork-execs replicas. It holds the privileges CRIU needs.
  launcher_ = kernel_->clone_process(os::kNoPid);
  os::Process& launcher = kernel_->process(launcher_);
  launcher.set_name("replica-launcher");
  launcher.grant(os::Cap::kSysPtrace | os::Cap::kCheckpointRestore);
}

ReplicaProcess StartupService::start_vanilla(const rt::FunctionSpec& spec,
                                             sim::Rng rng) {
  os::Kernel& k = *kernel_;
  obs::Tracer& tr = k.trace();
  ReplicaProcess rep;
  const sim::TimePoint t0 = k.sim().now();

  obs::Span start_span = tr.span("start.vanilla", "core");
  start_span.attr("function", spec.name);

  // CLONE
  {
    obs::Span phase = tr.span("clone", "core.phase");
    rep.pid = k.clone_process(launcher_);
  }
  const sim::TimePoint t_clone = k.sim().now();

  // EXEC
  {
    obs::Span phase = tr.span("exec", "core.phase");
    phase.attr("binary", spec.runtime_binary);
    k.exec(rep.pid, spec.runtime_binary, {spec.runtime_binary, spec.name});
  }
  const sim::TimePoint t_exec = k.sim().now();

  // RTS + APPINIT
  rep.runtime = std::make_unique<rt::ManagedRuntime>(k, rep.pid, costs_, spec,
                                                     std::move(rng));
  {
    obs::Span phase = tr.span("rts", "core.phase");
    rep.runtime->bootstrap();
  }
  {
    obs::Span phase = tr.span("appinit", "core.phase");
    rep.runtime->app_init(*assets_);
  }
  const sim::TimePoint t_ready = k.sim().now();

  rep.breakdown.clone_time = t_clone - t0;
  rep.breakdown.exec_time = t_exec - t_clone;
  rep.breakdown.rts_time = rep.runtime->rts_time();
  rep.breakdown.appinit_time = rep.runtime->appinit_time();
  rep.breakdown.total = t_ready - t0;
  rep.breakdown.span_id = start_span.id();
  start_span.attr("total_ms", rep.breakdown.total.to_millis());
  return rep;
}

os::Pid StartupService::ensure_zygote(const rt::FunctionSpec& spec) {
  const auto it = zygotes_.find(spec.runtime_binary);
  if (it != zygotes_.end() && kernel_->alive(it->second)) return it->second;

  // Boot a generic runtime process once (deploy-time cost, like baking).
  obs::Span span = kernel_->trace().span("zygote.boot", "core");
  span.attr("binary", spec.runtime_binary);
  const os::Pid pid = kernel_->clone_process(launcher_);
  kernel_->exec(pid, spec.runtime_binary, {spec.runtime_binary, "--zygote"});
  rt::FunctionSpec generic;  // no function code: just the bare runtime
  generic.name = "zygote";
  generic.runtime_binary = spec.runtime_binary;
  rt::ManagedRuntime zygote_rt{*kernel_, pid, costs_, generic, sim::Rng{0x2790}};
  zygote_rt.bootstrap();
  zygotes_[spec.runtime_binary] = pid;
  return pid;
}

ReplicaProcess StartupService::start_zygote_fork(const rt::FunctionSpec& spec,
                                                 sim::Rng rng) {
  os::Kernel& k = *kernel_;
  obs::Tracer& tr = k.trace();
  const os::Pid zygote = ensure_zygote(spec);

  ReplicaProcess rep;
  const sim::TimePoint t0 = k.sim().now();

  obs::Span start_span = tr.span("start.zygote", "core");
  start_span.attr("function", spec.name);

  // fork(2) from the zygote: the booted runtime state arrives via COW.
  {
    obs::Span phase = tr.span("fork", "core.phase");
    rep.pid = k.clone_process(zygote);
  }
  const sim::TimePoint t_fork = k.sim().now();

  rep.runtime = std::make_unique<rt::ManagedRuntime>(
      rt::ManagedRuntime::attach_forked(k, rep.pid, costs_, spec,
                                        std::move(rng)));
  {
    obs::Span phase = tr.span("appinit", "core.phase");
    rep.runtime->app_init(*assets_);
  }
  const sim::TimePoint t_ready = k.sim().now();

  rep.breakdown.clone_time = t_fork - t0;
  rep.breakdown.exec_time = sim::Duration{};  // no exec: the image is shared
  rep.breakdown.rts_time = sim::Duration{};   // bootstrap ran in the zygote
  rep.breakdown.appinit_time = t_ready - t_fork;
  rep.breakdown.total = t_ready - t0;
  rep.breakdown.span_id = start_span.id();
  return rep;
}

ReplicaProcess StartupService::start_prebaked(const rt::FunctionSpec& spec,
                                              const criu::ImageDir& images,
                                              const PrebakedStartOptions& options,
                                              sim::Rng rng) {
  os::Kernel& k = *kernel_;
  obs::Tracer& tr = k.trace();
  ReplicaProcess rep;
  const sim::TimePoint t0 = k.sim().now();

  obs::Span start_span = tr.span("start.prebaked", "core");
  start_span.attr("function", spec.name);
  const criu::PagingPolicy paging = options.restore.paging;
  if (paging.mode != criu::PagingMode::kEager)
    start_span.attr("paging", criu::paging_mode_name(paging.mode));
  if (options.restore.remote_fetch) start_span.attr("remote_fetch", "true");

  // The caller's restore knobs pass through untouched, but pid reuse and
  // privileges are the deployment's call: replicas are restored
  // concurrently, so the original pid cannot be reused, and CRIU runs with
  // the launcher's capabilities.
  criu::RestoreOptions opts = options.restore;
  opts.restore_original_pid = false;
  opts.criu_caps = k.process(launcher_).caps();

  const RestorePolicy& policy = options.policy;
  const int max_attempts = std::max(policy.max_attempts, 1);
  criu::Restorer restorer{k};
  criu::RestoreResult restored;
  for (int attempt = 1;; ++attempt) {
    rep.breakdown.restore_attempts = static_cast<std::uint32_t>(attempt);
    // The failed attempts and backoffs before this try are fault time.
    rep.breakdown.fault_time = k.sim().now() - t0;
    obs::Span attempt_span = tr.span("restore.attempt", "core");
    attempt_span.attr("attempt", attempt);
    try {
      if (options.base.has_value() && options.base->images != nullptr) {
        const criu::LayerLink links[] = {
            *options.base, {&images, opts.fs_prefix, opts.store_key}};
        restored = restorer.restore_layered(links, opts);
      } else {
        restored = restorer.restore(images, opts);
      }
      break;
    } catch (const criu::RestoreError& e) {
      attempt_span.attr("error", e.what());
      attempt_span.end();
      if (e.transient() && attempt < max_attempts) {
        obs::Span backoff = tr.span("retry-backoff", "core");
        k.sim().advance(kRestoreRetryBackoff * static_cast<double>(attempt));
        continue;
      }
      if (!policy.fallback_to_vanilla) throw;
      // The restore budget is spent; finish the start the slow-but-sure way.
      // The wasted attempts stay on the clock and in the breakdown.
      tr.count("core.restore_fallbacks");
      const std::uint32_t attempts = rep.breakdown.restore_attempts;
      const sim::Duration wasted = k.sim().now() - t0;
      rep = start_vanilla(spec, rng.child(1));
      rep.breakdown.restore_attempts = attempts;
      rep.breakdown.fell_back_to_vanilla = true;
      rep.breakdown.fault_time = wasted;
      rep.breakdown.total = k.sim().now() - t0;
      rep.breakdown.span_id = start_span.id();
      start_span.attr("fell_back_to_vanilla", "true");
      return rep;
    }
  }
  rep.pid = restored.pid;
  rep.paging_mode = paging.mode;
  if (restored.template_clone) start_span.attr("template_clone", "true");
  if (restored.base_template_clone)
    start_span.attr("base_template_clone", "true");
  if (restored.ws_fallback)
    start_span.attr("ws_fallback",
                    criu::restore_error_name(restored.ws_fallback_kind));
  rep.restore = std::move(restored);
  const sim::TimePoint t_restored = k.sim().now();

  // Learn how warm the image is from its stats entry.
  const std::optional<criu::StatsEntry>& stats = images.decoded().stats;
  if (!stats)
    throw std::runtime_error{"ImageDir: missing image file stats.img"};
  {
    obs::Span phase = tr.span("appinit", "core.phase");
    rep.runtime = std::make_unique<rt::ManagedRuntime>(
        rt::ManagedRuntime::attach_restored(k, rep.pid, costs_, spec,
                                            std::move(rng),
                                            stats->warmup_requests > 0,
                                            *assets_));
  }
  const sim::TimePoint t_ready = k.sim().now();

  rep.breakdown.clone_time = sim::Duration{};
  rep.breakdown.exec_time = sim::Duration{};
  rep.breakdown.rts_time = sim::Duration{};  // "brings the RTS down to 0 ms"
  rep.breakdown.restore_time = t_restored - t0;
  rep.breakdown.appinit_time = t_ready - t_restored;
  rep.breakdown.total = t_ready - t0;
  rep.breakdown.span_id = start_span.id();
  start_span.attr("attempts",
                  static_cast<std::int64_t>(rep.breakdown.restore_attempts));
  return rep;
}

void StartupService::reclaim(ReplicaProcess& replica) {
  if (replica.pid == os::kNoPid) return;
  if (kernel_->alive(replica.pid)) {
    kernel_->kill_process(replica.pid);
    kernel_->reap(replica.pid);
  }
  replica.runtime.reset();
  replica.pid = os::kNoPid;
}

}  // namespace prebake::core
