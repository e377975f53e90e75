// Fig 19: collateral damage of a 64:1 incast on a long flow to a *different*
// host on the same ToR, for DCTCP, DCQCN and NDP.  Reports the goodput
// time-series of the long flow.
//
// DCTCP: the incast overflows shared buffers; the long flow dips and
// recovers slowly.  DCQCN: no loss, but PFC pause frames cascade up and
// repeatedly stall the long flow (the paper's key indictment of lossless
// Ethernet).  NDP: a sub-millisecond dip during the incast's first RTT, then
// full throughput.
#include "common.h"
#include "harness/experiments.h"
#include "stats/rate_sampler.h"
#include "workload/traffic_matrix.h"

namespace ndpsim::figures {
namespace {

metrics run_collateral(scale sc, protocol proto, sim_env& env) {
  fabric_params fp;
  fp.proto = proto;
  testbed bed(env, {.k = default_k(sc)}, fp);
  const std::size_t n_hosts = bed.topo->n_hosts();
  // Hosts 0 and 1 share a ToR; the long flow's source is in another pod.
  flow_options lo;
  lo.handshake = false;
  flow& long_flow =
      bed.flows->create(proto, static_cast<std::uint32_t>(n_hosts - 1), 0, lo);

  rate_sampler sampler(
      bed.env, [&long_flow] { return long_flow.payload_received(); },
      from_ms(1));
  sampler.start(0);

  bed.env.events.run_until(from_ms(20));  // long flow at steady state
  // 64:1 incast to host 1 (same ToR as the long flow's destination).
  std::vector<std::uint32_t> senders;
  for (std::uint32_t h = 2; h < n_hosts && senders.size() < 64; ++h) {
    if (h != n_hosts - 1) senders.push_back(h);
  }
  std::vector<flow*> incast;
  for (auto s : senders) {
    flow_options o;
    o.bytes = 900'000;
    o.handshake = false;
    o.min_rto = from_us(500);
    o.start = bed.env.now();
    incast.push_back(&bed.flows->create(proto, s, 1, o));
  }
  bed.env.events.run_until(from_ms(60));

  // Long-flow dip during/after the incast window, and its goodput per ms
  // from t=18ms to t=40ms (the figure's series).
  metrics m;
  double long_flow_min_gbps = 99;
  double long_flow_mean_after_gbps = 0;
  int count_after = 0;
  for (const auto& smp : sampler.samples()) {
    if (smp.at > from_ms(20)) {
      long_flow_min_gbps = std::min(long_flow_min_gbps, smp.rate_bps / 1e9);
      long_flow_mean_after_gbps += smp.rate_bps / 1e9;
      ++count_after;
    }
    if (smp.at >= from_ms(18) && smp.at <= from_ms(40)) {
      m[indexed("longflow_gbps_at", static_cast<long>(smp.at / from_ms(1)),
                "ms")] = smp.rate_bps / 1e9;
    }
  }
  if (count_after > 0) long_flow_mean_after_gbps /= count_after;
  m["longflow_min_gbps"] = long_flow_min_gbps;
  m["longflow_mean_gbps_after_incast"] = long_flow_mean_after_gbps;
  return m;
}

}  // namespace

figure fig19_collateral() {
  return {"fig19",
          "Fig 19: collateral damage of a 64:1 incast on a same-ToR long flow",
          "DCTCP: dip and slow recovery (losses at ToR and agg); DCQCN: "
          "repeated stalls from cascading PFC pauses; NDP: <1ms dip then full "
          "rate",
          [](scale sc) {
            std::vector<point> pts;
            for (const protocol proto :
                 {protocol::dctcp, protocol::dcqcn, protocol::ndp}) {
              pts.push_back({to_string(proto), 19,
                             std::bind_front(run_collateral, sc, proto)});
            }
            return pts;
          }};
}

}  // namespace ndpsim::figures
