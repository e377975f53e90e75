// §6.2 "Who needs packet trimming?" (in-text): pHost — receiver-driven like
// NDP but over plain 8-packet drop-tail switches — compared on the
// permutation matrix and on a large incast.
#include "common.h"
#include "harness/experiments.h"
#include "workload/traffic_matrix.h"

namespace ndpsim::figures {
namespace {

metrics run_phost_permutation(scale sc, protocol proto, sim_env& env) {
  fabric_params fp;
  fp.proto = proto;
  testbed bed(env, {.k = default_k(sc)}, fp);
  flow_options o;
  if (proto == protocol::phost) {
    o.bytes = 100'000'000;  // pHost needs finite flows (RTS carries size)
  }
  const permutation_result res =
      run_permutation(bed, proto, o, from_ms(3), from_ms(8));
  return {{"utilization_pct", res.utilization * 100}};
}

metrics run_phost_incast(scale sc, protocol proto, sim_env& env) {
  fabric_params fp;
  fp.proto = proto;
  testbed bed(env, {.k = default_k(sc)}, fp);
  const std::size_t n = std::min<std::size_t>(sc == scale::paper ? 400 : 100,
                                              bed.topo->n_hosts() - 1);
  const auto senders = incast_senders(bed.env.rng, bed.topo->n_hosts(), 0, n);
  flow_options o;
  // Short responses: loss recovery (token timeouts for pHost, NACK+PULL
  // for NDP) dominates, which is where trimming pays.
  const incast_result res =
      run_incast(bed, proto, senders, 0, 90'000, o, from_sec(30));
  return {{"last_fct_ms", res.last_fct_us / 1000.0},
          {"completed", static_cast<double>(res.completed)},
          {"optimal_ms",
           incast_optimal_us(n, 90'000, 9000, gbps(10), from_us(40)) / 1000.0}};
}

}  // namespace

figure text_phost() {
  return {"text_phost", "Text §6.2: pHost vs NDP (is trimming needed?)",
          "pHost ~70% permutation utilization vs NDP ~95%; on the large "
          "incast pHost is ~10x slower than NDP (first-RTT drops cost token "
          "timeouts)",
          [](scale sc) {
            std::vector<point> pts;
            for (const protocol proto : {protocol::phost, protocol::ndp}) {
              pts.push_back({std::string(to_string(proto)) + " permutation", 71,
                             std::bind_front(run_phost_permutation, sc, proto)});
            }
            const std::size_t n = sc == scale::paper ? 400 : 100;
            for (const protocol proto : {protocol::phost, protocol::ndp}) {
              pts.push_back({std::string(to_string(proto)) + " incast n=" +
                                 std::to_string(n),
                             72, std::bind_front(run_phost_incast, sc, proto)});
            }
            return pts;
          }};
}

}  // namespace ndpsim::figures
