// §6.2 "Larger topologies" (in-text): permutation utilization with 8-packet
// buffers, IW 30 and 9K MTU, as the FatTree grows.  The paper reports a
// gentle decrease from 98% at 128 hosts to 90% at 8192 hosts.
#include "common.h"
#include "harness/experiments.h"

namespace ndpsim::figures {

figure text_scaling() {
  return {"text_scaling", "Text §6.2: permutation utilization vs topology size",
          "utilization decreases gently with size (98% at 128 hosts -> 90% at "
          "8192 in the paper) while buffers stay at 8 packets",
          [](scale sc) {
            const std::vector<unsigned> ks =
                sc == scale::paper ? std::vector<unsigned>{4, 8, 12, 16}
                                   : std::vector<unsigned>{4, 6, 8};
            std::vector<point> pts;
            for (const unsigned k : ks) {
              pts.push_back(
                  {"k=" + std::to_string(k), 61, [k](sim_env& env) -> metrics {
                     fabric_params fp;
                     fp.proto = protocol::ndp;
                     testbed bed(env, {.k = k}, fp);
                     flow_options o;
                     o.iw_packets = 30;
                     const permutation_result res = run_permutation(
                         bed, protocol::ndp, o, from_ms(3), from_ms(6));
                     return {{"hosts", static_cast<double>(k) * k * k / 4},
                             {"utilization_pct", res.utilization * 100},
                             {"min_gbps", res.flow_gbps.front()}};
                   }});
            }
            return pts;
          }};
}

}  // namespace ndpsim::figures
