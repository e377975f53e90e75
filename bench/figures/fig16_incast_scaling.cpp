// Fig 16: incast completion time vs the number of backend servers, 450KB
// responses, for MPTCP, DCTCP, DCQCN and NDP. Reports both the last and the
// first flow's completion (the spread is the fairness of the scheme).
#include "common.h"
#include "harness/experiments.h"
#include "workload/traffic_matrix.h"

namespace ndpsim::figures {
namespace {

metrics run_incast450(scale sc, protocol proto, std::size_t n, sim_env& env) {
  fabric_params fp;
  fp.proto = proto;
  testbed bed(env, {.k = default_k(sc)}, fp);
  const auto senders = incast_senders(bed.env.rng, bed.topo->n_hosts(), 0, n);
  flow_options o;
  o.handshake = false;
  o.min_rto = from_us(200);  // Vasudevan-style aggressive timers for TCPs
  const incast_result res =
      run_incast(bed, proto, senders, 0, 450'000, o, from_sec(20));
  return {{"last_fct_ms", res.last_fct_us / 1000.0},
          {"first_fct_ms", res.first_fct_us / 1000.0},
          {"optimal_ms",
           incast_optimal_us(n, 450'000, 9000, gbps(10), from_us(40)) / 1000.0},
          {"completed", static_cast<double>(res.completed)}};
}

}  // namespace

figure fig16_incast_scaling() {
  return {"fig16",
          "Fig 16: incast completion time vs number of senders (450KB each)",
          "completion grows linearly with n for NDP/DCQCN (~1% over optimal) "
          "and DCTCP (~5% over); MPTCP far above with huge spread "
          "(synchronized losses); NDP's first/last spread within ~20%",
          [](scale sc) {
            const std::vector<std::size_t> sizes =
                sc == scale::paper
                    ? std::vector<std::size_t>{8, 16, 32, 64, 128, 256, 400}
                    : std::vector<std::size_t>{8, 16, 32, 64, 100};
            std::vector<point> pts;
            for (const protocol proto : {protocol::mptcp, protocol::dctcp,
                                         protocol::dcqcn, protocol::ndp}) {
              for (const std::size_t n : sizes) {
                pts.push_back({std::string(to_string(proto)) +
                                   " n=" + std::to_string(n),
                               16, std::bind_front(run_incast450, sc, proto, n)});
              }
            }
            return pts;
          }};
}

}  // namespace ndpsim::figures
