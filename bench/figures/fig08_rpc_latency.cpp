// Fig 8: time to perform a 1KB RPC over NDP, TCP Fast Open and TCP, with and
// without deep CPU sleep states (host-artifact model; see DESIGN.md).
#include "common.h"
#include "host/rpc_latency_model.h"

namespace ndpsim::figures {
namespace {

metrics run_rpc(rpc_stack stack, bool sleep, sim_env& env) {
  const sample_set s = simulate_rpc_latency(env, stack, sleep, 20000);
  return {{"median_us", s.median()},
          {"p10_us", s.quantile(0.10)},
          {"p90_us", s.quantile(0.90)}};
}

}  // namespace

figure fig08_rpc_latency() {
  return {"fig08", "Fig 8: 1KB RPC latency, NDP vs TFO vs TCP (+- deep sleep)",
          "NDP median ~62us; TFO ~4x and TCP ~5x NDP with sleep states; with "
          "sleep disabled TFO ~2x and TCP ~3x NDP",
          [](scale) {
            return std::vector<point>{
                {"NDP", 7, std::bind_front(run_rpc, rpc_stack::ndp, true)},
                {"TFO (no sleep)", 7,
                 std::bind_front(run_rpc, rpc_stack::tfo, false)},
                {"TCP (no sleep)", 7,
                 std::bind_front(run_rpc, rpc_stack::tcp, false)},
                {"TFO", 7, std::bind_front(run_rpc, rpc_stack::tfo, true)},
                {"TCP", 7, std::bind_front(run_rpc, rpc_stack::tcp, true)}};
          }};
}

}  // namespace ndpsim::figures
