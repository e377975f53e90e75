// Fig 23: the Facebook "web" workload (small packets, no rack locality) on a
// 4:1 oversubscribed three-tier FatTree, closed-loop arrivals, at two load
// levels (5 and 10 simultaneous connections per host).  NDP vs DCTCP FCTs.
//
// This is NDP's least favourable regime: most traffic crosses the
// oversubscribed core, and small packets give a poor trimming compression
// ratio — yet it should still beat DCTCP in the median and hold the tail,
// with no congestion collapse.
//
// LIMITATION — how the 4:1 is produced: `fat_tree` emulates oversubscription
// by hanging `oversubscription * k/2` hosts off each ToR while keeping the
// ToR->agg and agg->core tiers fully provisioned.  That concentrates the
// entire 4:1 ratio at the ToR uplink tier; a production 4:1 fabric typically
// spreads it across tiers (fewer uplinks/cores), which shapes where queues
// build and where NDP trims.  The headline comparison (NDP vs DCTCP under
// core-crossing load) survives this, but per-tier queue depths should not be
// read as a literal reproduction of the paper's fabric.  Each run emits the
// effective ratio actually wired — host ingress capacity over ToR uplink
// capacity, from the instantiated queues, not the config knob — as the
// `effective_oversubscription` metric so downstream consumers can see what
// fabric the numbers came from.
#include "common.h"
#include "harness/experiments.h"
#include "workload/closed_loop.h"
#include "workload/size_distributions.h"

namespace ndpsim::figures {
namespace {

/// The ratio actually wired into the instantiated fabric: aggregate host
/// ingress capacity per ToR over aggregate ToR uplink capacity (computed
/// from the live queues' rates, so a speed override or config change shows
/// up here rather than silently diverging from the `oversubscription` knob).
double effective_ratio(const fat_tree& ft) {
  const double host_in = static_cast<double>(ft.hosts_per_tor()) *
                         static_cast<double>(ft.host_link_speed(0));
  const auto& tor_up = ft.queues_at(link_level::tor_up);
  const std::size_t uplinks_per_tor = tor_up.size() / ft.n_tors();
  double uplink_out = 0;
  for (std::size_t u = 0; u < uplinks_per_tor; ++u) {
    uplink_out += static_cast<double>(tor_up[u]->rate());
  }
  return uplink_out > 0 ? host_in / uplink_out : 0.0;
}

metrics run_load(scale sc, protocol proto, unsigned conns_per_host,
                 sim_env& env) {
  fabric_params fp;
  fp.proto = proto;
  fp.mtu_bytes = 1500;  // web traffic: small packets
  const unsigned k = sc == scale::paper ? 8 : 4;  // 512 or 64 hosts at 4:1
  testbed bed(env, {.k = k, .oversubscription = 4}, fp);

  closed_loop_generator gen(
      bed.env, bed.topo->n_hosts(), conns_per_host, facebook_web_sizes(),
      from_ms(1),
      [&](std::uint32_t src, std::uint32_t dst, std::uint64_t bytes,
          simtime_t start, std::function<void()> done) {
        flow_options o;
        o.bytes = bytes;
        o.start = start;
        o.mss_bytes = 1500;
        o.handshake = false;
        o.min_rto = from_ms(1);
        flow& f = bed.flows->create(proto, src, dst, o);
        f.on_complete(std::move(done));
      });
  gen.start();
  bed.env.events.run_until(from_ms(sc == scale::paper ? 120 : 80));
  gen.stop();

  const auto& fct = gen.fcts().fct_us();
  const auto tor_up = bed.topo->aggregate_stats(link_level::tor_up);
  return {{"median_ms", fct.median() / 1000.0},
          {"p90_ms", fct.quantile(0.90) / 1000.0},
          {"p99_ms", fct.quantile(0.99) / 1000.0},
          {"flows_completed", static_cast<double>(gen.fcts().completed())},
          {"tor_uplink_trim_frac",
           tor_up.arrivals > 0 ? static_cast<double>(tor_up.trimmed) /
                                     static_cast<double>(tor_up.arrivals)
                               : 0.0},
          {"effective_oversubscription", effective_ratio(*bed.topo)}};
}

}  // namespace

figure fig23_oversubscribed() {
  return {"fig23", "Fig 23: Facebook web workload, 4:1 oversubscribed fabric",
          "medium load: NDP median FCT ~half DCTCP's, ~1/3 at the 99th; high "
          "load (~70% ToR trimming): NDP still slightly ahead in median and "
          "tail, and no congestion collapse",
          [](scale sc) {
            std::vector<point> pts;
            for (const unsigned conns : {5u, 10u}) {
              for (const protocol proto : {protocol::ndp, protocol::dctcp}) {
                pts.push_back({std::string(to_string(proto)) +
                                   (conns <= 5 ? " medium load" : " high load"),
                               23, std::bind_front(run_load, sc, proto, conns)});
              }
            }
            return pts;
          }};
}

}  // namespace ndpsim::figures
