// Fig 22: permutation throughput when one core<->aggregation link silently
// negotiates down to 1Gb/s.  NDP's path scoreboard (ACK/NACK ratios per
// path) must detect and avoid the degraded paths; without the penalty
// mechanism NDP sprays into the black hole; MPTCP's per-path congestion
// control also copes; single-path DCTCP flows unlucky enough to hash onto
// the degraded link suffer.
#include "common.h"
#include "harness/experiments.h"

namespace ndpsim::figures {
namespace {

metrics run_degraded(scale sc, protocol proto, bool ndp_penalty,
                     sim_env& env) {
  fabric_params fp;
  fp.proto = proto;
  // Degrade the first agg->core uplink and the matching core->agg downlink.
  auto override = [](link_level level, std::size_t index,
                     linkspeed_bps def) -> linkspeed_bps {
    if (level == link_level::agg_up && index == 0) return gbps(1);
    if (level == link_level::core_down && index == 0) return gbps(1);
    return def;
  };
  testbed bed(env, {.k = default_k(sc), .speed_override = override}, fp);
  flow_options o;
  o.handshake = false;
  o.subflows = 8;
  o.path_penalty = ndp_penalty;
  const permutation_result res =
      run_permutation(bed, proto, o, from_ms(4), from_ms(8));
  metrics m = {{"utilization_pct", res.utilization * 100}};
  add_flow_gbps(m, res.flow_gbps);
  return m;
}

}  // namespace

figure fig22_asymmetry() {
  return {"fig22", "Fig 22: permutation with one core link degraded to 1Gb/s",
          "NDP with the path penalty and MPTCP route around the failure (near "
          "Fig 14 throughput); NDP without the penalty leaves many flows at a "
          "few Gb/s; a few DCTCP flows collapse to <1Gb/s",
          [](scale sc) {
            auto body = [sc](protocol proto, bool penalty) {
              return std::bind_front(run_degraded, sc, proto, penalty);
            };
            return std::vector<point>{
                {"NDP", 22, body(protocol::ndp, true)},
                {"NDP (no path penalty)", 22, body(protocol::ndp, false)},
                {"MPTCP", 22, body(protocol::mptcp, true)},
                {"DCTCP", 22, body(protocol::dctcp, true)}};
          }};
}

}  // namespace ndpsim::figures
