#include "faas/load_generator.hpp"

#include <memory>

namespace prebake::faas {

namespace {

struct LoopState {
  Platform* platform;
  LoadGenConfig config;
  funcs::Request request;
  LoadGenResult result;
  int sent = 0;
  sim::TimePoint start;
};

void send_next(const std::shared_ptr<LoopState>& state) {
  if (state->sent >= state->config.requests) return;
  ++state->sent;
  state->platform->invoke(
      state->config.function, state->request,
      [state](const funcs::Response& res, const RequestMetrics& metrics) {
        state->result.metrics.push_back(metrics);
        state->result.responses.push_back(res);
        if (state->sent < state->config.requests) {
          state->platform->kernel().sim().schedule_in(
              state->config.think_time, [state] { send_next(state); });
        }
      });
}

}  // namespace

LoadGenResult run_load(Platform& platform, const LoadGenConfig& config) {
  auto state = std::make_shared<LoopState>();
  state->platform = &platform;
  state->config = config;
  state->request =
      funcs::sample_request(platform.registry().get(config.function).spec.handler_id);
  state->start = platform.kernel().sim().now();

  platform.kernel().sim().schedule_in(sim::Duration::nanos(0),
                                      [state] { send_next(state); });
  // Step the simulation only until every response has arrived; later events
  // (idle-timeout reclaims) stay pending for the caller to run if desired.
  while (state->result.responses.size() <
             static_cast<std::size_t>(config.requests) &&
         platform.kernel().sim().step()) {
  }

  state->result.makespan = platform.kernel().sim().now() - state->start;
  return std::move(state->result);
}

}  // namespace prebake::faas
