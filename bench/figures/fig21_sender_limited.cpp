// Fig 21: sender-limited traffic.  Host A sends to B, C, D and E; host F
// also sends to E.  A's NIC is the bottleneck for its four flows, so E's
// fair queuing of its pull queue must give F the residual capacity of E's
// link while A's flows split A's link evenly — with no wasted pulls.
#include "common.h"
#include "harness/flow_factory.h"
#include "harness/queue_factory.h"
#include "topo/micro_topo.h"

namespace ndpsim::figures {
namespace {

metrics run_sender_limited(sim_env& env) {
  // Hosts: A=0, B=1, C=2, D=3, E=4, F=5.
  fabric_params fp;
  fp.proto = protocol::ndp;
  single_switch topo(env, 6, gbps(10), from_us(1),
                     make_queue_factory(env, fp));
  flow_factory flows(env, topo);
  std::vector<flow*> fs;
  flow_options o;  // unbounded
  fs.push_back(&flows.create(protocol::ndp, 0, 1, o));  // A->B
  fs.push_back(&flows.create(protocol::ndp, 0, 2, o));  // A->C
  fs.push_back(&flows.create(protocol::ndp, 0, 3, o));  // A->D
  fs.push_back(&flows.create(protocol::ndp, 0, 4, o));  // A->E
  fs.push_back(&flows.create(protocol::ndp, 5, 4, o));  // F->E

  env.events.run_until(from_ms(5));
  std::vector<std::uint64_t> base;
  for (flow* f : fs) base.push_back(f->payload_received());
  env.events.run_until(from_ms(25));

  const char* names[] = {"A_to_B_gbps", "A_to_C_gbps", "A_to_D_gbps",
                         "A_to_E_gbps", "F_to_E_gbps"};
  metrics m;
  double total_a = 0, total_e = 0;
  for (std::size_t i = 0; i < fs.size(); ++i) {
    const double gbps_measured =
        static_cast<double>(fs[i]->payload_received() - base[i]) * 8 /
        to_sec(from_ms(20)) / 1e9;
    m[names[i]] = gbps_measured;
    if (i < 4) total_a += gbps_measured;
    if (i >= 3) total_e += gbps_measured;
  }
  m["total_from_A_gbps"] = total_a;
  m["total_to_E_gbps"] = total_e;
  return m;
}

}  // namespace

figure fig21_sender_limited() {
  return {"fig21", "Fig 21: sender-limited topology (A->B,C,D,E and F->E)",
          "A's four flows each ~2.4-2.5Gb/s (A's link full and evenly split); "
          "F->E ~7.5Gb/s (E's link full); no pulls wasted. Paper table "
          "(Gb/s): A->B 2.51, A->C 2.50, A->D 2.51, A->E 2.38, F->E 7.55; "
          "total from A 9.90, total to E 9.93",
          [](scale) {
            return std::vector<point>{{"A->B,C,D,E and F->E", 21,
                                       run_sender_limited}};
          }};
}

}  // namespace ndpsim::figures
