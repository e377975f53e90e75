// Fig 20: very large incasts (up to 8000 flows at paper scale), 270KB per
// flow: (a) completion-time overhead over the theoretical optimum and
// (b) retransmissions per packet, split by trigger (NACK vs return-to-sender
// bounce), for IW in {1, 10, 23}.
#include "common.h"
#include "harness/experiments.h"
#include "workload/traffic_matrix.h"

namespace ndpsim::figures {
namespace {

metrics run_large_incast(scale sc, std::size_t n, std::uint32_t iw,
                         sim_env& env) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  testbed bed(env, {.k = sc == scale::paper ? 16u : 8u}, fp);
  const auto senders = incast_senders(bed.env.rng, bed.topo->n_hosts(), 0, n);
  flow_options o;
  o.iw_packets = iw;
  const incast_result res =
      run_incast(bed, protocol::ndp, senders, 0, 270'000, o, from_sec(60));
  const double opt = incast_optimal_us(n, 270'000, 9000, gbps(10), from_us(45));
  const double total_pkts = static_cast<double>(res.packets_sent);
  return {{"overhead_pct", 100.0 * (res.last_fct_us - opt) / opt},
          {"rtx_per_pkt_nack",
           static_cast<double>(res.rtx_after_nack) / total_pkts},
          {"rtx_per_pkt_bounce",
           static_cast<double>(res.rtx_after_bounce) / total_pkts},
          {"rtx_per_pkt_timeout",
           static_cast<double>(res.rtx_after_timeout) / total_pkts},
          {"completed", static_cast<double>(res.completed)}};
}

}  // namespace

figure fig20_large_incast() {
  return {"fig20", "Fig 20: large-incast overhead and retransmission mechanisms",
          "(a) IW=23: worst overhead on *small* incasts yet within ~2% of "
          "optimal, negligible for large n; IW=1 bad below ~8 flows (cannot "
          "fill the receiver link); (b) NACKs dominate small incasts, "
          "return-to-sender takes over above ~100 flows; mean rtx/packet "
          "stays around or below 1",
          [](scale sc) {
            const std::vector<std::size_t> sizes =
                sc == scale::paper
                    ? std::vector<std::size_t>{1, 4, 16, 64, 256, 1000}
                    : std::vector<std::size_t>{1, 4, 16, 64, 120};
            std::vector<point> pts;
            for (const std::uint32_t iw : {23, 10, 1}) {
              for (const std::size_t n : sizes) {
                pts.push_back({"IW=" + std::to_string(iw) +
                                   " n=" + std::to_string(n),
                               20, std::bind_front(run_large_incast, sc, n, iw)});
              }
            }
            return pts;
          }};
}

}  // namespace ndpsim::figures
