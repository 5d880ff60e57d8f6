#include "faas/platform.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "criu/error.hpp"
#include "criu/ws.hpp"

namespace prebake::faas {

namespace {

// Container/runtime overhead accounted per replica beyond process RSS.
constexpr std::uint64_t kReplicaMemOverhead = 32ull << 20;
// Weight of each prebaked start's signal in its node's health EWMA.
constexpr double kNodeHealthAlpha = 0.2;
// Re-dump attempts when the final migration link ships corrupt (the
// pre-copy chain is abandoned and a full dump retried).
constexpr int kMaxFinalAttempts = 3;

}  // namespace

Platform::Platform(os::Kernel& kernel, rt::RuntimeCosts runtime_costs,
                   PlatformConfig config, std::uint64_t seed)
    : kernel_{&kernel},
      startup_{kernel, std::move(runtime_costs), assets_},
      containers_{kernel, config.container_costs},
      builder_{kernel, startup_},
      config_{config},
      rng_{seed},
      migrator_{kernel, config.migration} {}

void Platform::deploy(rt::FunctionSpec spec, StartMode mode,
                      core::SnapshotPolicy policy) {
  std::optional<core::PrebakeConfig> prebake;
  if (mode == StartMode::kPrebaked) {
    core::PrebakeConfig cfg;
    cfg.policy = policy;
    // Layered mode: every function of a runtime is dumped as a delta over
    // the runtime's shared base snapshot (baked here on first use).
    if (config_.layered) cfg.split_base = ensure_base_snapshot(spec);
    prebake = cfg;
  }
  BuildResult built = builder_.build(std::move(spec), prebake,
                                     rng_.child(registry_.size() + 7));

  RegisteredFunction fn;
  fn.spec = std::move(built.spec);
  fn.mode = mode;
  fn.policy = policy;
  fn.build_time = built.build_time;
  if (built.snapshot.has_value()) snapshots_.put(std::move(*built.snapshot));
  registry_.put(std::move(fn));
}

std::string Platform::base_snapshot_name(const std::string& runtime_binary) {
  std::string name = "rt-base-";
  for (const char c : runtime_binary) name += c == '/' ? '-' : c;
  return name;
}

const core::BakedSnapshot* Platform::ensure_base_snapshot(
    const rt::FunctionSpec& spec) {
  const std::string name = base_snapshot_name(spec.runtime_binary);
  const core::SnapshotPolicy policy = core::SnapshotPolicy::no_warmup();
  if (!snapshots_.has(name, policy)) {
    // The bare booted runtime: same binary, no application classes, nothing
    // warmed. Its memory is a positional prefix of every function baked on
    // top of it (exec + bootstrap run identically before any app state), so
    // the split dump's content diff lands only app pages in the delta.
    rt::FunctionSpec base;
    base.name = name;
    base.handler_id = "noop";
    base.runtime_binary = spec.runtime_binary;
    core::PrebakeConfig cfg;  // monolithic, no warm-up
    // rng stream keyed off the binary path (FNV-1a) so the bake is
    // deterministic regardless of deploy order.
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : spec.runtime_binary)
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    BuildResult built = builder_.build(std::move(base), cfg, rng_.child(h));
    if (built.snapshot.has_value()) snapshots_.put(std::move(*built.snapshot));
  }
  return &snapshots_.get(name, policy);
}

std::uint32_t Platform::evict_base_templates(NodeId node) {
  criu::PageStore& store = resources_.node_mut(node).store();
  std::vector<std::string> victims;
  for (const auto& [key, tpl] : store.templates())
    if (!tpl.base_key.empty() || store.template_dependents(key) > 0 ||
        key.find("rt-base-") != std::string::npos)
      victims.push_back(key);
  std::uint32_t dropped = 0;
  for (const std::string& key : victims) {
    const os::Pid tpl = store.drop_template(key);
    if (tpl == os::kNoPid) continue;
    ++dropped;
    if (kernel_->alive(tpl)) {
      kernel_->kill_process(tpl);
      kernel_->reap(tpl);
    }
  }
  return dropped;
}

Platform::Replica* Platform::find_idle(const std::string& function) {
  const auto it = by_function_.find(function);
  if (it == by_function_.end()) return nullptr;
  // Creation order, first idle wins — the selection the fleet-wide scan of
  // the original implementation made.
  for (Replica* r : it->second)
    if (r->state == ReplicaState::kIdle) return r;
  return nullptr;
}

Platform::Replica* Platform::find_replica(std::uint64_t id) {
  const auto it = replicas_.find(id);
  return it == replicas_.end() ? nullptr : it->second.get();
}

std::uint32_t Platform::replica_count(const std::string& function) const {
  const auto it = by_function_.find(function);
  return it == by_function_.end() ? 0u
                                  : static_cast<std::uint32_t>(it->second.size());
}

std::uint32_t Platform::idle_replica_count(const std::string& function) const {
  const auto it = by_function_.find(function);
  if (it == by_function_.end()) return 0;
  std::uint32_t n = 0;
  for (const Replica* r : it->second)
    if (r->state == ReplicaState::kIdle) ++n;
  return n;
}

std::uint32_t Platform::starting_replica_count(
    const std::string& function) const {
  const auto it = by_function_.find(function);
  if (it == by_function_.end()) return 0;
  std::uint32_t n = 0;
  for (const Replica* r : it->second)
    if (r->state == ReplicaState::kStarting) ++n;
  return n;
}

void Platform::note_mem_change(std::int64_t delta) {
  const sim::TimePoint now = kernel_->sim().now();
  mem_byte_seconds_ +=
      static_cast<double>(fleet_mem_bytes_) * (now - mem_mark_).to_seconds();
  mem_mark_ = now;
  fleet_mem_bytes_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(fleet_mem_bytes_) + delta);
}

std::string Platform::node_image_prefix(NodeId node,
                                        const std::string& fs_prefix) const {
  return "/node/" + resources_.node(node).name() + fs_prefix;
}

Platform::Replica* Platform::start_replica(const std::string& function,
                                           bool prewarmed) {
  const RegisteredFunction& fn = registry_.get(function);
  if (replica_count(function) >= config_.max_replicas_per_function)
    return nullptr;

  // Estimate the placement footprint: snapshot size (prebaked) or class +
  // runtime footprint (vanilla), plus the container overhead. A snapshot
  // evicted from the store degrades to a Vanilla start, not an outage.
  const core::BakedSnapshot* snap = nullptr;
  const core::BakedSnapshot* base = nullptr;  // layered delta's base layer
  std::uint64_t est = kReplicaMemOverhead;
  if (fn.mode == StartMode::kPrebaked) {
    // A quarantined snapshot is off limits: the breaker tripped on repeated
    // restore failures and a re-bake is in flight. Start Vanilla meanwhile.
    const auto health = snapshot_health_.find(function);
    const bool quarantined =
        health != snapshot_health_.end() && health->second.quarantined;
    if (!quarantined) {
      try {
        snap = &snapshots_.get(function, fn.policy);
        // A split snapshot is only restorable over its base layer; a base
        // evicted from the store degrades this start to Vanilla, like a
        // missing snapshot would.
        if (!snap->base_function.empty())
          base = &snapshots_.get(snap->base_function, snap->base_policy);
        est += snap->images.nominal_total();
        if (base != nullptr) est += base->images.nominal_total();
      } catch (const std::exception&) {
        snap = nullptr;
        base = nullptr;
      }
    }
  }
  if (snap == nullptr)
    est += 16ull * 1024 * 1024 + fn.spec.total_class_bytes() * 2 +
           fn.spec.init_extra_resident;

  // Every prebaked start on a remote registry, and every one with templates
  // on, runs against its node's page store; the placement request then
  // carries the snapshot's digests for kSnapshotLocality. Layered locality
  // scores by the *whole chain*'s digests (base first), so a node holding
  // the base ranks by the missing delta pages only, which is what the
  // restore would actually transfer.
  const bool node_store = config_.remote_registry || config_.page_store;
  PlacementRequest request;
  request.mem_bytes = est;
  std::vector<std::uint64_t> chain_digests;
  if (node_store && snap != nullptr && snap->images.decoded().pages) {
    if (base != nullptr && base->images.decoded().pages) {
      const auto& b = base->images.decoded().pages->digests();
      const auto& d = snap->images.decoded().pages->digests();
      chain_digests.reserve(b.size() + d.size());
      chain_digests.insert(chain_digests.end(), b.begin(), b.end());
      chain_digests.insert(chain_digests.end(), d.begin(), d.end());
      request.snapshot_digests = chain_digests;
    } else {
      request.snapshot_digests = snap->images.decoded().pages->digests();
    }
  }
  const std::optional<NodeId> node = resources_.place(request);
  if (!node.has_value()) return nullptr;
  note_mem_change(static_cast<std::int64_t>(est));

  obs::Tracer& tr = kernel_->trace();
  {
    obs::Span placed = tr.instant("placement", "faas");
    placed.attr("function", function);
    placed.attr("node", resources_.node(*node).name());
    placed.attr("mem_bytes", est);
  }

  auto replica = std::make_unique<Replica>();
  replica->id = next_replica_id_++;
  replica->function = function;
  replica->node = *node;
  replica->mem_bytes = est;
  replica->prewarmed = prewarmed;

  // The start-up work (container provisioning, restore or fork-exec, app
  // init) is measured inline against the kernel — its side effects (page
  // cache warmth, process creation) apply now, in call order — then the
  // clock is rewound and the elapsed work is queued on the owning node's
  // CPU timeline; the replica becomes idle at the node's completion time.
  // The replica-start span covers the measured window (ended explicitly at
  // t_end before the rewind), with the core start.* spans nested inside.
  const sim::TimePoint t0 = kernel_->sim().now();
  obs::Span start_span = tr.span("replica-start", "faas");
  start_span.attr("function", function);
  start_span.attr("node", resources_.node(*node).name());

  if (config_.containerized) {
    // Provision the execution environment first (Section 2, component 1).
    // The image layers: runtime binary + the function's class archive.
    std::vector<std::string> layers{fn.spec.runtime_binary};
    if (!fn.spec.classpath_archive.empty())
      layers.push_back(fn.spec.classpath_archive);
    replica->container = containers_.create(
        function + "-" + std::to_string(replica->id), std::move(layers), est,
        /*privileged=*/fn.mode == StartMode::kPrebaked);
  }

  sim::Rng rng = rng_.child(replica->id * 1315423911ULL);
  if (fn.mode == StartMode::kPrebaked && snap != nullptr) {
    // A corrupt or missing snapshot must degrade availability, not destroy
    // it: fall back to the fork-exec path and count the incident.
    try {
      core::PrebakedStartOptions opts;
      // Working-set mode auto-switches per snapshot: record on its first
      // start (no ws-1.img yet — serve() closes the recording after the
      // first invocation and attaches the image), prefetch ever after.
      criu::PagingPolicy paging = config_.paging;
      if (paging.mode == criu::PagingMode::kWorkingSet)
        paging = snap->images.has(criu::kWsImageName)
                     ? criu::PagingPolicy::ws_prefetch()
                     : criu::PagingPolicy::ws_recording();
      opts.restore.paging = paging;
      opts.policy.max_attempts = config_.restore_max_attempts;
      // StartupService handles the fallback so the breakdown records the
      // attempt count and the fallback flag; the catch below stays as the
      // safety net for non-restore failures.
      opts.policy.fallback_to_vanilla = true;
      WorkerNode& wn = resources_.node_mut(*node);
      if (config_.remote_registry) {
        // Materialize the node-local image files; ones never fetched start
        // cold, so the restore pays the registry transfer for exactly the
        // uncached files (pages-1.img as a delta against the node's page
        // store). The materialization itself can be cut short
        // (kTruncatedWrite): the restore detects the short file and fails
        // typed, and the breaker heals the node copy via quarantine +
        // re-bake.
        const std::string local = node_image_prefix(*node, snap->fs_prefix);
        for (const auto& [name, f] : snap->images.files()) {
          const std::string path = local + name;
          if (!kernel_->fs().exists(path)) {
            kernel_->fs().create(path, f.nominal_size);
            if (f.nominal_size > 0 && kernel_->faults().enabled() &&
                kernel_->faults().fires(faults::FaultSite::kTruncatedWrite))
              kernel_->fs().truncate(path, f.nominal_size / 2);
          }
        }
        opts.restore.fs_prefix = local;
        opts.restore.remote_fetch = true;
      } else {
        opts.restore.fs_prefix = snap->fs_prefix;
      }
      if (node_store) {
        if (config_.node_page_store_bytes > 0 && wn.store().capacity() == 0)
          wn.store().set_capacity(config_.node_page_store_bytes);
        opts.restore.page_store = &wn.store();
        // Template freeze/clone requires eager paging (a non-eager restore
        // leaves a lazy tail the frozen template would miss — see
        // RestoreOptions::validate); under lazy or working-set modes the
        // store still serves per-page delta transfer.
        if (config_.page_store && paging.mode == criu::PagingMode::kEager)
          opts.restore.store_key = opts.restore.fs_prefix;
      }
      if (base != nullptr) {
        // Base→delta restore: hand StartupService the base layer under the
        // delta. On a remote registry the base files materialize node-local
        // like the delta's (the restore negotiates what actually transfers);
        // the base template key mirrors the function's store key scheme.
        std::string base_prefix = base->fs_prefix;
        if (config_.remote_registry) {
          base_prefix = node_image_prefix(*node, base->fs_prefix);
          for (const auto& [name, f] : base->images.files()) {
            const std::string path = base_prefix + name;
            if (!kernel_->fs().exists(path))
              kernel_->fs().create(path, f.nominal_size);
          }
        }
        criu::LayerLink lb{&base->images, base_prefix, ""};
        if (!opts.restore.store_key.empty()) lb.store_key = base_prefix;
        opts.base = std::move(lb);
      }
      replica->proc = startup_.start_prebaked(fn.spec, snap->images, opts,
                                              rng.child(0));
      const criu::RestoreResult& restored = replica->proc.restore;
      const bool fell_back = replica->proc.breakdown.fell_back_to_vanilla;
      NodeStats& ns = wn.stats();
      ns.remote_bytes_fetched += restored.remote_bytes;
      ns.store_hit_pages += restored.store_hit_pages;
      ns.store_delta_bytes += restored.store_delta_bytes;
      if (restored.template_clone) ++ns.template_clones;
      // A remote-registry start hits when it pulled nothing from the
      // registry; a template clone reads no image, so it always hits.
      if (config_.remote_registry && !fell_back)
        ++(restored.remote_bytes == 0 ? ns.snapshot_hits : ns.snapshot_misses);
      if (opts.base.has_value() && !fell_back) {
        ++stats_.layered_starts;
        if (restored.base_template_clone) {
          ++stats_.base_template_clones;
          ++ns.base_template_clones;
        }
        if (restored.base_template_materialized)
          ++stats_.base_templates_materialized;
        // Neither a base clone nor a freeze nor a function-template clone:
        // the start replayed the full base+delta chain from images.
        if (!restored.base_template_clone &&
            !restored.base_template_materialized && !restored.template_clone)
          ++stats_.layered_full_restores;
      }
      if (replica->proc.paging_mode == criu::PagingMode::kWorkingSet) {
        if (restored.ws_fallback) {
          ++stats_.ws_fallbacks;
        } else if (restored.ws_recorder == nullptr) {
          ++stats_.ws_prefetch_starts;
          stats_.ws_prefetched_pages += restored.ws_prefetched_pages;
        }
      }
      if (replica->proc.breakdown.restore_attempts > 1)
        stats_.restore_retries += replica->proc.breakdown.restore_attempts - 1;
      if (fell_back) {
        ++stats_.restore_fallbacks;
        note_restore_failure(function);
      } else if (const auto it = snapshot_health_.find(function);
                 it != snapshot_health_.end()) {
        it->second.consecutive_failures = 0;  // breaker counts *consecutive*
      }
    } catch (const std::exception&) {
      ++stats_.restore_fallbacks;
      note_restore_failure(function);
      replica->proc = startup_.start_vanilla(fn.spec, rng.child(1));
      replica->proc.breakdown.fell_back_to_vanilla = true;
    }
    // Fold this start into the node's fault-rate EWMA: a start that needed
    // retries or fell back is the early smoke of a failing node (the same
    // one kNodeCrash eventually takes down).
    note_node_health(*node, (replica->proc.breakdown.restore_attempts > 1 ||
                             replica->proc.breakdown.fell_back_to_vanilla)
                                ? 1.0
                                : 0.0);
  } else if (fn.mode == StartMode::kPrebaked) {
    ++stats_.restore_fallbacks;
    replica->proc = startup_.start_vanilla(fn.spec, rng.child(1));
    replica->proc.breakdown.fell_back_to_vanilla = true;
  } else {
    replica->proc = startup_.start_vanilla(fn.spec, std::move(rng));
  }

  if (replica->container.has_value()) {
    containers_.attach(*replica->container, replica->proc.pid);
    if (const auto oom = containers_.enforce_memory_limit(*replica->container)) {
      ++stats_.oom_kills;
      containers_.destroy(*replica->container);
      const sim::TimePoint t_end = kernel_->sim().now();
      start_span.attr("oom_killed", "true");
      start_span.end_at(t_end);
      kernel_->sim().rewind_to(t0);
      resources_.node_mut(*node).run(t0, t_end - t0);  // the work still ran
      resources_.release(*node, est);
      note_mem_change(-static_cast<std::int64_t>(est));
      return nullptr;
    }
  }

  if (replica->proc.breakdown.restore_attempts > 1)
    tr.count("faas.restore_retries",
             replica->proc.breakdown.restore_attempts - 1);
  const sim::TimePoint t_end = kernel_->sim().now();
  start_span.end_at(t_end);
  kernel_->sim().rewind_to(t0);
  const sim::TimePoint ready_at =
      resources_.node_mut(*node).run(t0, t_end - t0);

  // Injected worker crash mid-restore (kNodeCrash, one draw per prebaked
  // start): the node dies halfway through this replica's start window.
  // fail_node kills everything on it and re-queues in-flight work; the
  // request that triggered this start is still queued and gets re-served
  // elsewhere via ensure_capacity.
  if (fn.mode == StartMode::kPrebaked && snap != nullptr &&
      kernel_->faults().enabled() &&
      kernel_->faults().fires(faults::FaultSite::kNodeCrash)) {
    const NodeId crashed = *node;
    const sim::TimePoint crash_at = t0 + (t_end - t0) * 0.5;
    kernel_->sim().schedule_at(crash_at,
                               [this, crashed] { crash_node(crashed); });
  }

  replica->state = ReplicaState::kStarting;
  ++stats_.replicas_started;
  Replica* out = replica.get();
  const std::uint64_t id = out->id;
  replicas_.emplace(id, std::move(replica));
  by_function_[function].push_back(out);
  kernel_->sim().schedule_at(ready_at, [this, id] { on_replica_ready(id); });
  return out;
}

void Platform::on_replica_ready(std::uint64_t id) {
  Replica* replica = find_replica(id);
  if (replica == nullptr || replica->state != ReplicaState::kStarting) return;
  const WorkerNode& wn = resources_.node(replica->node);
  if (wn.state() == NodeState::kFailed) return;  // fail_node owns cleanup
  if (wn.state() == NodeState::kDraining) {
    reclaim(*replica);
    return;
  }
  replica->state = ReplicaState::kIdle;
  replica->idle_since = kernel_->sim().now();
  arm_idle_timer(*replica);
  dispatch(replica->function);
}

void Platform::invoke(const std::string& function, funcs::Request req,
                      InvokeCallback callback) {
  if (!registry_.has(function))
    throw std::out_of_range{"Platform::invoke: unknown function " + function};
  ++stats_.invocations;
  const sim::TimePoint now = kernel_->sim().now();
  queues_[function].push_back(
      Pending{std::move(req), std::move(callback), now, now});

  if (find_idle(function) == nullptr) {
    // Cold start: no ready replica for this event (Figure 1's flow).
    if (start_replica(function) == nullptr &&
        queues_[function].size() > 4 * config_.max_replicas_per_function) {
      // Saturated: reject to keep the queue bounded.
      Pending p = std::move(queues_[function].back());
      queues_[function].pop_back();
      ++stats_.rejected;
      funcs::Response res;
      res.status = 503;
      res.body = "no capacity";
      RequestMetrics m;
      m.function = function;
      m.arrival = p.arrival;
      p.callback(res, m);
      return;
    }
  }
  dispatch(function);
}

void Platform::scale_up(const std::string& function, std::uint32_t count) {
  while (idle_replica_count(function) + starting_replica_count(function) <
         count)
    if (start_replica(function, /*prewarmed=*/true) == nullptr) break;
}

void Platform::set_min_idle(const std::string& function, std::uint32_t count) {
  if (!registry_.has(function))
    throw std::out_of_range{"Platform::set_min_idle: unknown function " + function};
  min_idle_[function] = count;
  scale_up(function, count);
}

void Platform::dispatch(const std::string& function) {
  auto& queue = queues_[function];
  while (!queue.empty()) {
    Replica* replica = find_idle(function);
    if (replica == nullptr) return;
    Pending pending = std::move(queue.front());
    queue.pop_front();
    serve(*replica, std::move(pending));
  }
}

void Platform::serve(Replica& replica, Pending pending) {
  replica.state = ReplicaState::kBusy;
  ++replica.idle_epoch;  // cancel any pending idle timeout logically
  const std::uint64_t epoch = ++replica.serve_epoch;

  RequestMetrics metrics;
  metrics.function = replica.function;
  metrics.arrival = pending.arrival;
  metrics.retries = pending.retries;
  metrics.queue_wait = kernel_->sim().now() - pending.enqueued;
  metrics.node = replica.node;
  obs::Tracer& tr = kernel_->trace();
  {
    // Retroactive: the wait is only known once a replica picks the request
    // up, so the span is opened with the enqueue timestamp and closed now.
    obs::Span wait = tr.span_at("queue-wait", "faas", pending.enqueued);
    wait.attr("function", replica.function);
    if (pending.retries > 0)
      wait.attr("retries", static_cast<std::uint64_t>(pending.retries));
    tr.measure("faas.queue_wait_ms", metrics.queue_wait.to_millis());
  }
  const bool first_serve = !replica.served_any;
  // A cold start is a request that had to wait for a replica to be created
  // on its behalf; pre-warmed pool replicas serve warm (Lin & Glikson [14]).
  if (!replica.served_any && !replica.prewarmed) {
    metrics.cold_start = true;
    metrics.startup = replica.proc.breakdown.total;
    ++stats_.cold_starts;
  }
  // First serve off a replica whose start degraded to the Vanilla path
  // (failed restore / quarantine): the request got an answer, but not the
  // prebaked latency it was promised. Reported separately from queue
  // rejections, which never reach a replica at all.
  metrics.fallback =
      !replica.served_any && replica.proc.breakdown.fell_back_to_vanilla;
  replica.served_any = true;

  // Execute the real handler synchronously to *measure* its duration, then
  // rewind and queue the work on the node's CPU timeline, emitting the
  // completion as an event — the replica stays Busy across the service
  // window so concurrent arrivals trigger scale-out (one request per
  // replica, as in public clouds — Section 4.1).
  const sim::TimePoint service_start = kernel_->sim().now();
  obs::Span serve_span = tr.span("serve", "faas");
  serve_span.attr("function", replica.function);
  serve_span.attr("node", resources_.node(replica.node).name());
  if (metrics.cold_start) serve_span.attr("cold_start", "true");
  // A non-eager restore left pages behind, billed to this request's service
  // time as they fault in. Pure-lazy (post-copy) drains everything on the
  // first touch of the working set — the legacy model. Under the REAP
  // working-set model the first invocation demand-faults only its working
  // set (first_invoke_ws_fraction of what is pending); a prefetch restore
  // already bulk-mapped that set, so it faults nothing here, and later
  // invocations touch the same resident pages.
  const criu::RestoreResult& restored = replica.proc.restore;
  if (restored.lazy_server != nullptr && !restored.lazy_server->done()) {
    if (replica.proc.paging_mode != criu::PagingMode::kWorkingSet) {
      restored.lazy_server->page_in_all();
    } else if (first_serve && (restored.ws_recorder != nullptr ||
                               restored.ws_fallback)) {
      const rt::FunctionSpec& spec = registry_.get(replica.function).spec;
      const double fraction =
          std::clamp(spec.first_invoke_ws_fraction, 0.0, 1.0);
      const std::uint64_t pending = restored.lazy_server->pending_pages();
      restored.lazy_server->page_in(static_cast<std::uint64_t>(
          std::ceil(static_cast<double>(pending) * fraction)));
    }
  }
  const funcs::Response response = replica.proc.runtime->handle(pending.req);
  // First invocation of a recording replica done: its faults (restore-demand
  // plus the handler's own touches) are the working set. Closing the capture
  // here keeps the encode + persist cost inside the measured serve window.
  if (restored.ws_recorder != nullptr) finish_ws_capture(replica);
  const sim::TimePoint service_end = kernel_->sim().now();
  serve_span.end_at(service_end);
  kernel_->sim().rewind_to(service_start);
  const sim::TimePoint completion =
      resources_.node_mut(replica.node).run(service_start,
                                            service_end - service_start);

  metrics.service = service_end - service_start;
  metrics.total = completion - pending.arrival;
  replica.inflight = std::move(pending);

  const std::uint64_t id = replica.id;
  kernel_->sim().schedule_at(completion, [this, id, epoch, response, metrics] {
    finish_serve(id, epoch, response, metrics);
  });
}

void Platform::finish_ws_capture(Replica& replica) {
  const criu::WorkingSetImage ws =
      criu::finish_ws_recording(*kernel_, *replica.proc.restore.ws_recorder);
  replica.proc.restore.ws_recorder.reset();
  std::vector<std::uint8_t> bytes = criu::encode_ws(ws);
  {
    obs::Span span = kernel_->trace().instant("ws-record.finish", "faas");
    span.attr("function", replica.function);
    span.attr("ws_pages", ws.total_pages);
    span.attr("ws_runs", static_cast<std::uint64_t>(ws.runs.size()));
    kernel_->trace().count("faas.ws_recordings");
  }
  ++stats_.ws_recordings;
  try {
    const RegisteredFunction& fn = registry_.get(replica.function);
    core::BakedSnapshot& snap =
        snapshots_.get_mutable(replica.function, fn.policy);
    // Persist beside the other image files so restores (and remote-node
    // materialization) read it like any metadata file.
    if (!snap.fs_prefix.empty())
      kernel_->fs().create(snap.fs_prefix + criu::kWsImageName, bytes.size());
    snap.images.put(criu::kWsImageName, std::move(bytes));
  } catch (const std::exception&) {
    // Snapshot evicted or re-baked away mid-capture: the recording is lost;
    // the next working-set start of the function simply records again.
  }
}

void Platform::finish_serve(std::uint64_t id, std::uint64_t serve_epoch,
                            const funcs::Response& response,
                            RequestMetrics metrics) {
  Replica* replica = find_replica(id);
  // A node failure between serve and completion re-queued the request; the
  // re-served copy delivers the response instead of this stale event.
  if (replica == nullptr || replica->serve_epoch != serve_epoch ||
      !replica->inflight.has_value())
    return;
  Pending pending = std::move(*replica->inflight);
  replica->inflight.reset();
  record_request(metrics);

  // Release the replica before delivering the response so a chained
  // invocation (workflow stages) can reuse it immediately.
  const std::string function = replica->function;
  if (replica->migration != nullptr && replica->migration->cutover_pending) {
    // The pre-dump chain converged while this request was in flight: enter
    // the cutover blackout now that the replica is quiescent.
    replica->state = ReplicaState::kIdle;
    replica->idle_since = kernel_->sim().now();
    do_cutover(*replica);
  } else if (replica->evacuate_on_idle && replica->migration == nullptr) {
    // Marked for warm evacuation (drain kMigrateWarm / migrate_replica while
    // busy): migrate instead of rejoining the idle pool. No destination with
    // room degrades to the plain drain/idle behavior.
    replica->evacuate_on_idle = false;
    const NodeId to = replica->evacuate_to;
    replica->evacuate_to = kNoNode;
    replica->state = ReplicaState::kIdle;
    replica->idle_since = kernel_->sim().now();
    if (!begin_migration(*replica, to)) {
      if (resources_.node(replica->node).state() == NodeState::kDraining) {
        ++resources_.node_mut(replica->node).stats().warmth_replicas_destroyed;
        reclaim(*replica);
      } else {
        arm_idle_timer(*replica);
      }
    }
  } else if (replica->migration == nullptr &&
             resources_.node(replica->node).state() == NodeState::kDraining) {
    // Draining and not mid-migration: the warmth dies here. A replica with
    // a pre-copy in flight instead rejoins the pool below and keeps serving
    // until its chain converges — that migration IS the drain's plan for it.
    ++resources_.node_mut(replica->node).stats().warmth_replicas_destroyed;
    reclaim(*replica);
  } else {
    replica->state = ReplicaState::kIdle;
    replica->idle_since = kernel_->sim().now();
    arm_idle_timer(*replica);
  }
  pending.callback(response, metrics);
  dispatch(function);
}

void Platform::arm_idle_timer(Replica& replica) {
  const std::uint64_t epoch = ++replica.idle_epoch;
  const std::uint64_t id = replica.id;
  kernel_->sim().schedule_in(config_.idle_timeout, [this, id, epoch] {
    Replica* r = find_replica(id);
    if (r == nullptr) return;
    if (r->state != ReplicaState::kIdle || r->idle_epoch != epoch) return;
    // Mid-migration replicas are exempt: reclaiming one would strand the
    // staged destination. finish/abort re-arm the timer.
    if (r->migration != nullptr) return;
    // The warm pool floor is exempt from idle reclaim. No re-arm: the
    // replica sits in the pool until it serves again (serving re-arms on
    // completion); re-arming here would tick forever on an idle system.
    const auto it = min_idle_.find(r->function);
    if (it != min_idle_.end() && idle_replica_count(r->function) <= it->second)
      return;
    reclaim(*r);
  });
}

void Platform::reclaim(Replica& replica) {
  if (replica.migration != nullptr)
    abort_migration(replica, MigrationErrorKind::kAborted, /*revive=*/false);
  if (replica.container.has_value()) containers_.destroy(*replica.container);
  startup_.reclaim(replica.proc);
  resources_.release(replica.node, replica.mem_bytes);
  note_mem_change(-static_cast<std::int64_t>(replica.mem_bytes));
  ++stats_.replicas_reclaimed;
  const std::uint64_t id = replica.id;
  auto& members = by_function_[replica.function];
  std::erase(members, &replica);
  replicas_.erase(id);
}

void Platform::record_request(const RequestMetrics& metrics) {
  if (!config_.aggregate_request_log) {
    request_log_.push_back(metrics);
    return;
  }
  ++aggregate_.count;
  if (metrics.fallback) ++aggregate_.fallback_serves;
  if (metrics.retries > 0) {
    ++aggregate_.retried;
    aggregate_.total_retries += metrics.retries;
  }
  aggregate_.total_ms.record(metrics.total.to_millis());
  aggregate_.service_ms.record(metrics.service.to_millis());
  aggregate_.queue_wait_ms.record(metrics.queue_wait.to_millis());
  if (metrics.cold_start) {
    ++aggregate_.cold_starts;
    aggregate_.cold_startup_ms.record(metrics.startup.to_millis());
  }
}

void Platform::ensure_capacity(const std::string& function) {
  const auto it = queues_.find(function);
  if (it == queues_.end() || it->second.empty()) return;
  std::uint32_t available =
      idle_replica_count(function) + starting_replica_count(function);
  while (available < it->second.size())
    if (start_replica(function) == nullptr)
      break;
    else
      ++available;
  dispatch(function);
}

void Platform::note_restore_failure(const std::string& function) {
  SnapshotHealth& h = snapshot_health_[function];
  ++h.consecutive_failures;
  if (config_.quarantine_threshold == 0 || h.quarantined) return;
  if (h.consecutive_failures < config_.quarantine_threshold) return;
  // Trip the breaker: too many failed restores in a row. Starts go Vanilla
  // until a fresh bake replaces the poisoned images.
  h.quarantined = true;
  ++h.quarantine_epoch;
  ++stats_.snapshot_quarantines;
  {
    obs::Span mark = kernel_->trace().instant("quarantine.enter", "faas");
    mark.attr("function", function);
    mark.attr("consecutive_failures",
              static_cast<std::uint64_t>(h.consecutive_failures));
    kernel_->trace().count("faas.quarantines");
  }
  rebake(function);
}

void Platform::rebake(const std::string& function) {
  const RegisteredFunction& fn = registry_.get(function);

  // Remove every node-local copy of the poisoned snapshot — a stale
  // (possibly truncated) node copy must not outlive the quarantine.
  try {
    const core::BakedSnapshot& old = snapshots_.get(function, fn.policy);
    for (WorkerNode& wn : resources_.nodes_mut()) {
      std::string key = old.fs_prefix;
      if (config_.remote_registry) {
        key = node_image_prefix(wn.id(), old.fs_prefix);
        for (const std::string& path : kernel_->fs().list(key))
          kernel_->fs().remove(path);
      }
      // A quarantined snapshot's frozen template descends from the poisoned
      // images: kill it too. Unpinning may evict its now-unreferenced pages.
      const os::Pid tpl = wn.store().drop_template(key);
      if (tpl != os::kNoPid && kernel_->alive(tpl)) {
        kernel_->kill_process(tpl);
        kernel_->reap(tpl);
      }
    }
  } catch (const std::exception&) {
    // No stored snapshot: nothing cached to drop.
  }

  // Bake the replacement. The build runs on the deployer, off the node
  // timelines: measure it inline, rewind, and lift the quarantine at the
  // time the fresh images are actually ready. Re-persisting the image files
  // also heals any truncated on-disk copies at the canonical prefix.
  const sim::TimePoint t0 = kernel_->sim().now();
  core::PrebakeConfig cfg;
  cfg.policy = fn.policy;
  BuildResult built =
      builder_.build(fn.spec, cfg, rng_.child(0xBA4E + next_rebake_++ * 2654435761ULL));
  const sim::TimePoint t_end = kernel_->sim().now();
  kernel_->sim().rewind_to(t0);

  const std::uint64_t epoch = snapshot_health_[function].quarantine_epoch;
  auto fresh = std::make_shared<std::optional<core::BakedSnapshot>>(
      std::move(built.snapshot));
  kernel_->sim().schedule_at(t0 + (t_end - t0), [this, function, epoch, fresh] {
    SnapshotHealth& h = snapshot_health_[function];
    if (!h.quarantined || h.quarantine_epoch != epoch) return;
    if (fresh->has_value()) snapshots_.put(std::move(**fresh));
    h.quarantined = false;
    h.consecutive_failures = 0;
    ++h.rebakes;
    ++stats_.snapshot_rebakes;
    obs::Span mark = kernel_->trace().instant("quarantine.lift", "faas");
    mark.attr("function", function);
    mark.attr("rebakes", static_cast<std::uint64_t>(h.rebakes));
    kernel_->trace().count("faas.rebakes");
  });
}

void Platform::crash_node(NodeId node) {
  if (resources_.node(node).state() == NodeState::kFailed) return;
  ++stats_.node_crashes;
  fail_node(node);
  if (config_.node_recovery_delay > sim::Duration{}) {
    kernel_->sim().schedule_in(config_.node_recovery_delay, [this, node] {
      if (resources_.node(node).state() != NodeState::kFailed) return;
      resources_.reactivate(node);
      ++stats_.node_recoveries;
      // The revived node can host again: top warm pools back up and drain
      // queues that were starved for capacity.
      for (const auto& [function, count] : min_idle_) scale_up(function, count);
      for (const auto& [function, queue] : queues_)
        if (!queue.empty()) ensure_capacity(function);
    });
  }
}

void Platform::drain_node(NodeId node, DrainMode mode) {
  resources_.drain(node);
  std::vector<std::uint64_t> idle_ids;
  for (const auto& [id, r] : replicas_)
    if (r->node == node && r->state == ReplicaState::kIdle &&
        r->migration == nullptr)
      idle_ids.push_back(id);
  for (const std::uint64_t id : idle_ids) {
    Replica* r = find_replica(id);
    if (r == nullptr) continue;
    // Warm evacuation: the idle replica keeps serving while its pre-dump
    // chain ships; its warmth arrives at the destination instead of dying
    // with the drain. No destination with room degrades to reclaim.
    if (mode == DrainMode::kMigrateWarm && begin_migration(*r, kNoNode))
      continue;
    ++resources_.node_mut(node).stats().warmth_replicas_destroyed;
    reclaim(*r);
  }
  if (mode == DrainMode::kMigrateWarm) {
    // Busy replicas evacuate when their current request completes
    // (finish_serve); starting ones are reclaimed at on_replica_ready.
    for (auto& [id, r] : replicas_)
      if (r->node == node && r->state == ReplicaState::kBusy &&
          r->migration == nullptr)
        r->evacuate_on_idle = true;
  }
  // Busy and starting replicas finish their work and are reclaimed by their
  // completion events. Refill warm pools on the remaining nodes now.
  for (const auto& [function, count] : min_idle_) scale_up(function, count);
}

void Platform::fail_node(NodeId node) {
  resources_.fail(node);
  ++stats_.node_failures;

  // The node's RAM is gone: its frozen templates die with it and the page
  // store forgets everything it had materialized (a recovered node starts
  // cold and re-pulls deltas).
  WorkerNode& failed = resources_.node_mut(node);
  failed.stats().warmth_template_pages_destroyed +=
      failed.store().template_pages();
  for (const os::Pid tpl : failed.store().drop_all_templates())
    if (kernel_->alive(tpl)) {
      kernel_->kill_process(tpl);
      kernel_->reap(tpl);
    }
  failed.store().clear_pages();

  // Replicas elsewhere that were migrating *to* this node lose their staged
  // destination, not their warmth: abort back to serving locally.
  for (auto& [id, r] : replicas_)
    if (r->node != node && r->migration != nullptr &&
        r->migration->dest == node)
      abort_migration(*r, MigrationErrorKind::kDestinationLost,
                      /*revive=*/true);

  std::vector<std::string> affected;
  std::vector<std::uint64_t> dead;
  for (auto& [id, r] : replicas_) {
    if (r->node != node) continue;
    affected.push_back(r->function);
    dead.push_back(id);
    // A migration whose source just died is over: free the staged
    // destination before the replica's own teardown below.
    if (r->migration != nullptr)
      abort_migration(*r, MigrationErrorKind::kSourceLost, /*revive=*/false);
    if (r->served_any) ++failed.stats().warmth_replicas_destroyed;
    if (r->inflight.has_value()) {
      // The response will never arrive from this replica; put the request
      // back at the head of the queue to be re-served (likely as a fresh
      // cold start elsewhere). The enqueue timestamp restarts — the lost
      // service time is the node's fault, not queueing delay — and the
      // retry is counted on the request instead.
      Pending p = std::move(*r->inflight);
      r->inflight.reset();
      p.enqueued = kernel_->sim().now();
      ++p.retries;
      queues_[r->function].push_front(std::move(p));
      ++stats_.requests_requeued;
    }
    if (r->container.has_value()) containers_.destroy(*r->container);
    startup_.reclaim(r->proc);
    resources_.release(node, r->mem_bytes);
    note_mem_change(-static_cast<std::int64_t>(r->mem_bytes));
    ++stats_.replicas_reclaimed;
  }
  for (const std::uint64_t id : dead) {
    Replica* r = replicas_[id].get();
    std::erase(by_function_[r->function], r);
    replicas_.erase(id);
  }

  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  for (const std::string& function : affected) ensure_capacity(function);
  for (const auto& [function, count] : min_idle_) scale_up(function, count);
}

// --- live replica migration (DESIGN.md §6i) ---------------------------------

NodeId Platform::find_replica_node(const std::string& function) const {
  const auto it = by_function_.find(function);
  if (it == by_function_.end()) return kNoNode;
  for (const Replica* r : it->second)
    if (r->state != ReplicaState::kStarting) return r->node;
  return kNoNode;
}

bool Platform::migrate_replica(const std::string& function, NodeId from,
                               NodeId to) {
  const auto it = by_function_.find(function);
  if (it == by_function_.end()) return false;
  for (Replica* r : it->second) {
    if (r->migration != nullptr || r->evacuate_on_idle) continue;
    if (from != kNoNode && r->node != from) continue;
    if (to != kNoNode && r->node == to) continue;
    if (r->state == ReplicaState::kIdle) {
      if (begin_migration(*r, to)) return true;
      continue;
    }
    if (r->state == ReplicaState::kBusy) {
      // Evacuate once the in-flight request completes (finish_serve).
      r->evacuate_on_idle = true;
      r->evacuate_to = to;
      return true;
    }
  }
  return false;
}

std::uint32_t Platform::rebalance() {
  std::uint32_t moves = 0;
  for (WorkerNode& n : resources_.nodes_mut()) {
    if (!n.schedulable() || n.mem_capacity() == 0) continue;
    const double util = static_cast<double>(n.mem_used()) /
                        static_cast<double>(n.mem_capacity());
    if (util < config_.rebalance_high_watermark) continue;
    // Shed the oldest idle replica — creation order, like find_idle.
    for (auto& [id, r] : replicas_) {
      if (r->node != n.id() || r->state != ReplicaState::kIdle ||
          r->migration != nullptr)
        continue;
      if (begin_migration(*r, kNoNode)) {
        ++moves;
        ++stats_.rebalance_moves;
        break;
      }
    }
  }
  return moves;
}

bool Platform::begin_migration(Replica& replica, NodeId to) {
  if (replica.migration != nullptr || replica.state != ReplicaState::kIdle)
    return false;
  NodeId dest = kNoNode;
  if (to != kNoNode) {
    if (to == replica.node) return false;
    WorkerNode& dn = resources_.node_mut(to);
    if (!dn.schedulable() || dn.mem_free() < replica.mem_bytes) return false;
    dn.reserve(replica.mem_bytes);
    dest = to;
  } else {
    PlacementRequest request;
    request.mem_bytes = replica.mem_bytes;
    request.exclude = replica.node;
    const std::optional<NodeId> n = resources_.place(request);
    if (!n.has_value()) return false;
    dest = *n;
  }
  note_mem_change(static_cast<std::int64_t>(replica.mem_bytes));

  auto m = std::make_unique<MigrationState>();
  m->id = next_migration_id_++;
  m->dest = dest;
  m->started = kernel_->sim().now();
  replica.migration = std::move(m);
  ++stats_.migrations_started;
  {
    obs::Span mark = kernel_->trace().instant("migration.begin", "faas");
    mark.attr("function", replica.function);
    mark.attr("from", resources_.node(replica.node).name());
    mark.attr("to", resources_.node(dest).name());
  }
  const std::uint64_t rid = replica.id;
  const std::uint64_t mid = replica.migration->id;
  if (migrator_.config().max_rounds <= 0)
    request_cutover(rid, mid);  // pure stop-and-copy: no pre-copy chain
  else
    migration_round(rid, mid);
  return true;
}

void Platform::migration_round(std::uint64_t replica_id,
                               std::uint64_t migration_id) {
  Replica* r = find_replica(replica_id);
  if (r == nullptr || r->migration == nullptr ||
      r->migration->id != migration_id)
    return;
  MigrationState& m = *r->migration;

  // Measure the round inline — dump on the source, ship on the wire — then
  // rewind and replay on the owning timelines. The replica keeps serving
  // throughout: pre-dump leaves it running (that is the "live" part).
  const sim::TimePoint t0 = kernel_->sim().now();
  obs::Span round_span = kernel_->trace().span("migration.pre-dump", "faas");
  round_span.attr("function", r->function);
  // A working-set replica lazy-serves its cold tail for life, but a pre-dump
  // chain must capture full memory: fault the tail in first, charged to this
  // round's source-side work. (Pure-lazy replicas drained on first serve.)
  const auto& lazy = r->proc.restore.lazy_server;
  if (r->proc.paging_mode == criu::PagingMode::kWorkingSet &&
      lazy != nullptr && !lazy->done())
    lazy->page_in_all();
  std::vector<const criu::ImageDir*> chain_so_far;
  chain_so_far.reserve(m.chain.size());
  for (const auto& link : m.chain) chain_so_far.push_back(link.get());
  Migrator::PreDump round;
  try {
    round = migrator_.pre_dump(r->proc.pid, chain_so_far);
  } catch (const MigrationError& e) {
    round_span.attr("aborted", migration_error_name(e.kind()));
    kernel_->sim().rewind_to(t0);
    abort_migration(*r, e.kind(), /*revive=*/true);
    return;
  }
  const sim::TimePoint t_dump = kernel_->sim().now();
  criu::PageStore* dest_store =
      config_.page_store ? &resources_.node_mut(m.dest).store() : nullptr;
  const Migrator::Shipped shipped = migrator_.ship_link(*round.link, dest_store);
  const sim::TimePoint t_ship = kernel_->sim().now();
  round_span.attr("pages", round.dumped_pages);
  round_span.attr("wire_bytes", shipped.bytes);
  round_span.end_at(t_ship);
  kernel_->sim().rewind_to(t0);
  const sim::TimePoint src_done =
      resources_.node_mut(r->node).run(t0, t_dump - t0);
  const sim::TimePoint arrive = src_done + (t_ship - t_dump);

  ++m.rounds;
  ++stats_.migration_rounds;
  stats_.migration_precopy_bytes += shipped.bytes;

  const std::uint64_t rid = replica_id;
  const std::uint64_t mid = migration_id;
  if (shipped.corrupt) {
    // The link arrived corrupt, so every younger delta would stack on a bad
    // base: abandon the pre-copy chain and cut over with a full dump. The
    // warmth still migrates; the downtime win doesn't — and neither does
    // the standby, which was built on the now-poisoned base.
    m.chain.clear();
    drop_standby(m);
    m.full_dump = true;
    ++stats_.migration_full_dumps;
    kernel_->sim().schedule_at(arrive,
                               [this, rid, mid] { request_cutover(rid, mid); });
    return;
  }
  m.chain.push_back(std::move(round.link));

  // Stage (or refresh) the warm standby at the destination. The first good
  // link restores into a stopped twin — runtime fixups included — and each
  // later link replays its pages onto it as it arrives. All of this
  // overlaps the still-serving source; it is why the blackout later bills
  // only the final delta.
  if (m.staged_pid == os::kNoPid) {
    std::vector<const criu::ImageDir*> staged_chain;
    staged_chain.reserve(m.chain.size());
    for (const auto& link : m.chain) staged_chain.push_back(link.get());
    try {
      const criu::RestoreResult staged = migrator_.restore_at(
          staged_chain, os::Cap::kSysPtrace | os::Cap::kSysAdmin);
      rt::ManagedRuntime::attach_restored(  // fixup cost; object discarded
          *kernel_, staged.pid, startup_.runtime_costs(),
          registry_.get(r->function).spec,
          rng_.child(0x57A6 + m.id * 2654435761ULL),
          r->proc.runtime != nullptr && r->proc.runtime->warmed(),
          startup_.assets());
      m.staged_pid = staged.pid;
      const sim::Duration stage_work = kernel_->sim().now() - t0;
      kernel_->sim().rewind_to(t0);
      resources_.node_mut(m.dest).run(arrive, stage_work);
    } catch (const criu::RestoreError&) {
      // Staging is an optimization: without a standby the cutover pays the
      // full restore inside the blackout instead.
      kernel_->sim().rewind_to(t0);
    }
  } else {
    resources_.node_mut(m.dest).run(arrive,
                                    migrator_.apply_cost(*m.chain.back()));
  }
  const bool converged =
      round.dumped_pages <= migrator_.config().convergence_pages ||
      m.rounds >= migrator_.config().max_rounds;
  if (converged)
    kernel_->sim().schedule_at(arrive,
                               [this, rid, mid] { request_cutover(rid, mid); });
  else
    kernel_->sim().schedule_at(arrive,
                               [this, rid, mid] { migration_round(rid, mid); });
}

void Platform::request_cutover(std::uint64_t replica_id,
                               std::uint64_t migration_id) {
  Replica* r = find_replica(replica_id);
  if (r == nullptr || r->migration == nullptr ||
      r->migration->id != migration_id)
    return;
  if (r->state == ReplicaState::kBusy) {
    // Quiesce first: finish_serve enters the blackout when the in-flight
    // request completes, so no request is ever dropped by a cutover.
    r->migration->cutover_pending = true;
    return;
  }
  if (r->state != ReplicaState::kIdle) return;
  do_cutover(*r);
}

void Platform::do_cutover(Replica& replica) {
  MigrationState& m = *replica.migration;
  m.cutover_pending = false;
  replica.state = ReplicaState::kMigrating;
  ++replica.idle_epoch;  // cancel any armed idle timer
  const sim::TimePoint t0 = kernel_->sim().now();
  m.cutover_started = t0;
  const bool warmed =
      replica.proc.runtime != nullptr && replica.proc.runtime->warmed();

  obs::Span span = kernel_->trace().span("migration.cutover", "faas");
  span.attr("function", replica.function);

  // The blackout, measured inline and bucketed into source / network /
  // destination work so each part replays on the right timeline.
  sim::Duration src_work{}, net_work{}, dest_work{};
  sim::TimePoint mark = t0;
  const auto lap = [&]() {
    const sim::TimePoint now = kernel_->sim().now();
    const sim::Duration d = now - mark;
    mark = now;
    return d;
  };
  const auto abort_cutover = [&](MigrationErrorKind kind, const char* why) {
    span.attr("aborted", why);
    span.end_at(kernel_->sim().now());
    kernel_->sim().rewind_to(t0);
    abort_migration(replica, kind, /*revive=*/true);
  };

  // Stop-and-copy (no pre-copy rounds ran) can still hold a working-set
  // replica's lazily pending cold tail: fault it in before the final dump.
  const auto& lazy = replica.proc.restore.lazy_server;
  if (replica.proc.paging_mode == criu::PagingMode::kWorkingSet &&
      lazy != nullptr && !lazy->done())
    lazy->page_in_all();

  // Final freeze+dump of the last dirty delta (a full dump when the
  // pre-copy chain was abandoned). A corrupt arrival re-dumps, bounded.
  criu::DumpResult final_dump;
  std::uint64_t final_bytes = 0;
  bool have_final = false;
  for (int attempt = 1; attempt <= kMaxFinalAttempts; ++attempt) {
    std::vector<const criu::ImageDir*> chain_so_far;
    chain_so_far.reserve(m.chain.size());
    for (const auto& link : m.chain) chain_so_far.push_back(link.get());
    try {
      final_dump = migrator_.final_dump(replica.proc.pid, chain_so_far,
                                        warmed ? 1u : 0u);
    } catch (const MigrationError& e) {
      abort_cutover(e.kind(), migration_error_name(e.kind()));
      return;
    }
    src_work += lap();
    criu::PageStore* dest_store =
        config_.page_store ? &resources_.node_mut(m.dest).store() : nullptr;
    const Migrator::Shipped shipped =
        migrator_.ship_link(final_dump.images, dest_store);
    net_work += lap();
    final_bytes += shipped.bytes;
    if (!shipped.corrupt) {
      have_final = true;
      break;
    }
  }
  if (!have_final) {
    abort_cutover(MigrationErrorKind::kCorruptChainLink, "corrupt-chain-link");
    return;
  }

  // Restore the chain at the destination. A destination crash mid-restore
  // (kNodeCrash) fails that node for real and retries on a fresh placement;
  // transient restore faults retry in place per the restore policy.
  std::vector<const criu::ImageDir*> chain;
  chain.reserve(m.chain.size() + 1);
  for (const auto& link : m.chain) chain.push_back(link.get());
  chain.push_back(&final_dump.images);

  criu::RestoreResult restored;
  bool have_restore = false;
  int attempt = 0;
  while (!have_restore) {
    if (kernel_->faults().enabled() &&
        kernel_->faults().fires(faults::FaultSite::kNodeCrash)) {
      // Destination died mid-restore: fail it for real, re-place, re-ship
      // the whole chain to the new destination, and try again there. The
      // standby died with the node, so the retry pays the restore in full.
      ++stats_.migration_dest_retries;
      drop_standby(m);
      const NodeId dead = m.dest;
      resources_.node_mut(dead).release(replica.mem_bytes);
      note_mem_change(-static_cast<std::int64_t>(replica.mem_bytes));
      m.dest = kNoNode;  // keeps fail_node's dest-lost pass off this one
      crash_node(dead);
      PlacementRequest request;
      request.mem_bytes = replica.mem_bytes;
      request.exclude = replica.node;
      const std::optional<NodeId> next = resources_.place(request);
      if (!next.has_value()) {
        abort_cutover(MigrationErrorKind::kDestinationLost,
                      "destination-lost");
        return;
      }
      m.dest = *next;
      note_mem_change(static_cast<std::int64_t>(replica.mem_bytes));
      criu::PageStore* store =
          config_.page_store ? &resources_.node_mut(m.dest).store() : nullptr;
      bool reshipped = true;
      for (const criu::ImageDir* link : chain) {
        const Migrator::Shipped s = migrator_.ship_link(*link, store);
        final_bytes += s.bytes;
        if (s.corrupt) {
          reshipped = false;
          break;
        }
      }
      net_work += lap();
      if (!reshipped) {
        abort_cutover(MigrationErrorKind::kCorruptChainLink,
                      "corrupt-chain-link");
        return;
      }
      continue;
    }
    try {
      restored = migrator_.restore_at(
          chain, os::Cap::kSysPtrace | os::Cap::kSysAdmin);
      have_restore = true;
    } catch (const criu::RestoreError& e) {
      ++attempt;
      if (!e.transient() || attempt >= std::max(config_.restore_max_attempts, 1)) {
        abort_cutover(MigrationErrorKind::kDestinationLost,
                      criu::restore_error_name(e.kind()));
        return;
      }
      kernel_->sim().advance(core::kRestoreRetryBackoff * attempt);
    }
  }

  // Stage the destination-side process; the runtime attach charges the
  // post-restore fixups. The swap itself happens at finish time, after the
  // work has actually completed on the destination's cores.
  m.new_proc = core::ReplicaProcess{};
  m.new_proc.pid = restored.pid;
  m.new_proc.breakdown = replica.proc.breakdown;
  m.new_proc.runtime =
      std::make_unique<rt::ManagedRuntime>(rt::ManagedRuntime::attach_restored(
          *kernel_, restored.pid, startup_.runtime_costs(),
          registry_.get(replica.function).spec,
          rng_.child(0x4D16 + m.id * 2654435761ULL), warmed,
          startup_.assets()));
  const sim::Duration restore_work = lap();
  if (m.staged_pid != os::kNoPid) {
    // The standby already holds the pre-copy state — restored and fixed up
    // while the source was still serving. The fresh restore above realizes
    // the merged final state; its cost was paid incrementally during the
    // rounds, so the blackout bills only applying the final delta and
    // resuming the twin.
    dest_work +=
        migrator_.apply_cost(final_dump.images) + migrator_.resume_cost();
    drop_standby(m);
  } else {
    dest_work += restore_work;
  }

  const sim::TimePoint t_end = kernel_->sim().now();
  span.end_at(t_end);
  kernel_->sim().rewind_to(t0);

  const sim::TimePoint src_done =
      resources_.node_mut(replica.node).run(t0, src_work);
  const sim::TimePoint arrive = src_done + net_work;
  const sim::TimePoint ready = resources_.node_mut(m.dest).run(arrive, dest_work);

  stats_.migration_final_bytes += final_bytes;
  const std::uint64_t rid = replica.id;
  const std::uint64_t mid = m.id;
  kernel_->sim().schedule_at(ready,
                             [this, rid, mid] { finish_migration(rid, mid); });
}

void Platform::finish_migration(std::uint64_t replica_id,
                                std::uint64_t migration_id) {
  Replica* r = find_replica(replica_id);
  if (r == nullptr || r->migration == nullptr ||
      r->migration->id != migration_id)
    return;
  MigrationState& m = *r->migration;
  const NodeId src = r->node;
  const NodeId dest = m.dest;

  // The destination replica is live: the frozen source is now redundant.
  startup_.reclaim(r->proc);
  r->proc = std::move(m.new_proc);

  // Re-home the container: the old cgroup dies with the source, a fresh one
  // wraps the restored process, charged to the destination's cores.
  if (r->container.has_value()) {
    containers_.destroy(*r->container);
    const RegisteredFunction& fn = registry_.get(r->function);
    const sim::TimePoint c0 = kernel_->sim().now();
    std::vector<std::string> layers{fn.spec.runtime_binary};
    if (!fn.spec.classpath_archive.empty())
      layers.push_back(fn.spec.classpath_archive);
    r->container = containers_.create(
        r->function + "-" + std::to_string(r->id) + "-m", std::move(layers),
        r->mem_bytes, /*privileged=*/fn.mode == StartMode::kPrebaked);
    containers_.attach(*r->container, r->proc.pid);
    const sim::TimePoint c_end = kernel_->sim().now();
    kernel_->sim().rewind_to(c0);
    resources_.node_mut(dest).run(c0, c_end - c0);
  }

  resources_.release(src, r->mem_bytes);
  note_mem_change(-static_cast<std::int64_t>(r->mem_bytes));
  {
    NodeStats& ss = resources_.node_mut(src).stats();
    ++ss.migrations_out;
    ++ss.warmth_replicas_migrated;
    ++resources_.node_mut(dest).stats().migrations_in;
  }

  r->node = dest;
  const sim::Duration downtime = kernel_->sim().now() - m.cutover_started;
  stats_.migration_downtime += downtime;
  ++stats_.migrations_completed;
  {
    obs::Span mark = kernel_->trace().instant("migration.finish", "faas");
    mark.attr("function", r->function);
    kernel_->trace().measure("faas.migration_downtime_ms",
                             downtime.to_millis());
  }
  r->migration.reset();
  r->state = ReplicaState::kIdle;
  r->idle_since = kernel_->sim().now();
  arm_idle_timer(*r);
  dispatch(r->function);
}

void Platform::abort_migration(Replica& replica, MigrationErrorKind kind,
                               bool revive) {
  if (replica.migration == nullptr) return;
  MigrationState& m = *replica.migration;
  if (m.dest != kNoNode) {
    resources_.node_mut(m.dest).release(replica.mem_bytes);
    note_mem_change(-static_cast<std::int64_t>(replica.mem_bytes));
  }
  if (m.new_proc.pid != os::kNoPid && kernel_->alive(m.new_proc.pid)) {
    kernel_->kill_process(m.new_proc.pid);
    kernel_->reap(m.new_proc.pid);
  }
  drop_standby(m);
  ++stats_.migrations_aborted;
  ++resources_.node_mut(replica.node).stats().migrations_aborted;
  {
    obs::Span mark = kernel_->trace().instant("migration.abort", "faas");
    mark.attr("function", replica.function);
    mark.attr("reason", migration_error_name(kind));
  }
  replica.migration.reset();
  if (!revive) return;
  // The source never stopped being able to serve: return it to the pool.
  if (replica.state == ReplicaState::kMigrating) {
    replica.state = ReplicaState::kIdle;
    replica.idle_since = kernel_->sim().now();
  }
  if (replica.state == ReplicaState::kIdle) {
    arm_idle_timer(replica);
    dispatch(replica.function);
  }
}

void Platform::drop_standby(MigrationState& m) {
  if (m.staged_pid == os::kNoPid) return;
  if (kernel_->alive(m.staged_pid)) {
    kernel_->kill_process(m.staged_pid);
    kernel_->reap(m.staged_pid);
  }
  m.staged_pid = os::kNoPid;
}

void Platform::note_node_health(NodeId node, double signal) {
  double& h = node_health_[node];
  h = kNodeHealthAlpha * signal + (1.0 - kNodeHealthAlpha) * h;
  if (config_.evacuation_threshold <= 0.0 || h < config_.evacuation_threshold)
    return;
  if (!resources_.node(node).schedulable()) return;
  const sim::TimePoint now = kernel_->sim().now();
  const auto last = last_evacuation_.find(node);
  if (last != last_evacuation_.end() &&
      now - last->second < config_.evacuation_cooldown)
    return;
  last_evacuation_[node] = now;
  h = 0.0;
  ++stats_.evacuations;
  {
    obs::Span mark = kernel_->trace().instant("migration.evacuate", "faas");
    mark.attr("node", resources_.node(node).name());
  }
  // Decoupled from the caller's measured start window: the evacuation runs
  // as its own event. The node drains warm — its replicas live-migrate —
  // and rejoins after the cooldown, hopefully past its bad patch.
  kernel_->sim().schedule_at(now, [this, node] {
    if (resources_.node(node).state() != NodeState::kReady) return;
    drain_node(node, DrainMode::kMigrateWarm);
    if (config_.evacuation_cooldown > sim::Duration{}) {
      kernel_->sim().schedule_in(config_.evacuation_cooldown, [this, node] {
        if (resources_.node(node).state() != NodeState::kDraining) return;
        resources_.reactivate(node);
        for (const auto& [function, count] : min_idle_)
          scale_up(function, count);
      });
    }
  });
}

}  // namespace prebake::faas
