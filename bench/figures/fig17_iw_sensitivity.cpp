// Fig 17: sensitivity of permutation throughput to NDP's two parameters —
// the initial window and the switch buffer size (6/8/10 packets at 9K MTU,
// and 8 packets at 1.5K MTU).
#include "common.h"
#include "harness/experiments.h"

namespace ndpsim::figures {

figure fig17_iw_sensitivity() {
  return {"fig17", "Fig 17: permutation utilization vs IW and buffer size",
          "IW~20 needed for full utilization at 9K MTU (30 at 1.5K); "
          "6-packet buffers ~90%, 8-packet ~95%+; overshooting IW reduces "
          "throughput slightly (more trimmed headers)",
          [](scale sc) {
            struct cfg {
              std::uint32_t buf_pkts;
              std::uint32_t mtu;
            };
            std::vector<point> pts;
            for (const cfg c : {cfg{6, 9000}, cfg{8, 9000}, cfg{10, 9000},
                                cfg{8, 1500}}) {
              for (const std::uint32_t iw : {5, 10, 15, 20, 25, 30, 40}) {
                pts.push_back(
                    {std::to_string(c.buf_pkts) + "pkt buffer, " +
                         std::to_string(c.mtu) + "B MTU, IW=" +
                         std::to_string(iw),
                     17, [=](sim_env& env) -> metrics {
                       fabric_params fp;
                       fp.proto = protocol::ndp;
                       fp.mtu_bytes = c.mtu;
                       fp.ndp_data_pkts = c.buf_pkts;
                       testbed bed(env, {.k = default_k(sc)}, fp);
                       flow_options o;
                       o.mss_bytes = c.mtu;
                       o.iw_packets = iw;
                       const permutation_result res = run_permutation(
                           bed, protocol::ndp, o, from_ms(3), from_ms(6));
                       return {{"utilization_pct", res.utilization * 100}};
                     }});
              }
            }
            return pts;
          }};
}

}  // namespace ndpsim::figures
