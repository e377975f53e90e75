// Fig 14: per-flow throughput under a permutation traffic matrix on the
// FatTree, for NDP, MPTCP (8 subflows), DCTCP and DCQCN.
#include "common.h"
#include "harness/experiments.h"

namespace ndpsim::figures {

figure fig14_permutation() {
  return {"fig14", "Fig 14: per-flow throughput, permutation traffic matrix",
          "NDP ~92%+ utilization with even the slowest flow near 9Gb/s; MPTCP "
          "~89%; DCTCP/DCQCN ~40% mean with some flows under 1Gb/s (per-flow "
          "ECMP collisions)",
          [](scale sc) {
            std::vector<point> pts;
            for (const protocol proto : {protocol::ndp, protocol::mptcp,
                                         protocol::dctcp, protocol::dcqcn}) {
              pts.push_back(
                  {to_string(proto), 42, [=](sim_env& env) {
                     fabric_params fp;
                     fp.proto = proto;
                     testbed bed(env, {.k = default_k(sc)}, fp);
                     flow_options o;
                     o.handshake = false;
                     o.subflows = 8;
                     const permutation_result res = run_permutation(
                         bed, proto, o, from_ms(3),
                         from_ms(sc == scale::paper ? 20 : 8));
                     metrics m = {{"utilization_pct", res.utilization * 100},
                                  {"mean_gbps", res.mean_gbps}};
                     add_flow_gbps(m, res.flow_gbps);
                     return m;
                   }});
            }
            return pts;
          }};
}

}  // namespace ndpsim::figures
