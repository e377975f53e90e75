// §3.1.1 / §3 "Congestion Control" (in-text numbers): sender-driven path
// permutation vs per-packet random ECMP.
//
// Under a full permutation load the paper reports 0.01% of packets trimmed
// on core uplinks when *senders* load balance (shuffled walk) vs 2.4% when
// switches pick randomly per packet, and slightly higher overall capacity
// for the sender-driven scheme.
#include "common.h"
#include "harness/experiments.h"

namespace ndpsim::figures {
namespace {

metrics run_loadbalance(scale sc, path_mode mode, sim_env& env) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  testbed bed(env, {.k = default_k(sc)}, fp);
  flow_options o;
  o.mode = mode;
  const permutation_result res =
      run_permutation(bed, protocol::ndp, o, from_ms(3), from_ms(8));
  const auto tor_up = bed.topo->aggregate_stats(link_level::tor_up);
  const auto agg_up = bed.topo->aggregate_stats(link_level::agg_up);
  const std::uint64_t up_arrivals = tor_up.arrivals + agg_up.arrivals;
  const std::uint64_t up_trims = tor_up.trimmed + agg_up.trimmed;
  return {{"uplink_trim_pct", up_arrivals > 0
                                  ? 100.0 * static_cast<double>(up_trims) /
                                        static_cast<double>(up_arrivals)
                                  : 0.0},
          {"utilization_pct", res.utilization * 100}};
}

}  // namespace

figure text_loadbalance() {
  return {"text_loadbalance",
          "Text §3.1.1: sender-permutation vs switch-random load balancing",
          "uplink trimming ~0.01% with sender permutation vs ~2.4% with random "
          "per-packet ECMP; permutation buys up to ~10% capacity with 8-packet "
          "buffers",
          [](scale sc) {
            return std::vector<point>{
                {"sender permutation (NDP default)", 31,
                 std::bind_front(run_loadbalance, sc, path_mode::permutation)},
                {"per-packet random ECMP", 31,
                 std::bind_front(run_loadbalance, sc,
                                 path_mode::random_per_packet)}};
          }};
}

}  // namespace ndpsim::figures
