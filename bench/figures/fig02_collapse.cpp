// Fig 2: congestion collapse and phase problems with CP vs the NDP switch.
//
// N unresponsive line-rate flows converge on one 10Gb/s port.  With CP's
// single FIFO, trimmed headers consume a growing share of the link and
// deterministic trimming favours some senders (phase effects): mean goodput
// collapses and the worst-10% flows collapse faster.  The NDP queue's WRR
// (10 headers : 1 data) caps header overhead and the 50% trim coin breaks
// phase locking: both curves stay near 100% of fair share.
#include <algorithm>

#include "common.h"
#include "cp/cp_queue.h"
#include "ndp/ndp_queue.h"
#include "net/fifo_queues.h"

namespace ndpsim::figures {
namespace {

metrics run_collapse(bool use_ndp_queue, std::size_t n_flows, sim_env& env) {
  const std::uint32_t mtu = 9000;
  auto factory = [&](link_level level, std::size_t, linkspeed_bps rate,
                     const std::string& name) -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate, name);
    }
    if (use_ndp_queue) {
      ndp_queue_config c;
      c.data_capacity_bytes = 8ull * mtu;
      c.header_capacity_bytes = 8ull * mtu;
      return std::make_unique<ndp_queue>(env, rate, c, name);
    }
    return std::make_unique<cp_queue>(env, rate, 8ull * mtu, name);
  };
  const simtime_t warmup = from_ms(4);
  // Longer windows for larger N so per-flow goodput has enough packets for
  // the worst-10% statistic to be about fairness rather than sampling noise.
  const simtime_t measure =
      std::min<simtime_t>(from_ms(20) + n_flows * from_ms(0.4), from_ms(60));
  const auto bytes = cbr_overload(env, n_flows, factory, 100, warmup, measure);

  // Fair share of goodput: the link carries payload at rate * (payload/mtu).
  const double fair_bps = 10e9 * (mtu - kHeaderBytes) / mtu /
                          static_cast<double>(n_flows);
  sample_set pct;
  for (const std::uint64_t b : bytes) {
    pct.add(100.0 * (static_cast<double>(b) * 8 / to_sec(measure)) / fair_bps);
  }
  return {{"goodput_pct_mean", pct.mean()},
          {"goodput_pct_worst10", pct.mean_lowest(0.10)}};
}

}  // namespace

figure fig02_collapse() {
  return {"fig02",
          "Fig 2: percent of fair goodput vs number of unresponsive flows",
          "CP mean decays with N and its worst-10% collapses (phase effects); "
          "NDP stays ~90-100% for both, flat in N",
          [](scale) {
            std::vector<point> pts;
            for (const std::size_t n : {4, 10, 20, 40, 80, 140, 200}) {
              for (const bool ndp : {false, true}) {
                pts.push_back({std::string(ndp ? "NDP switch" : "CP switch") +
                                   " n=" + std::to_string(n),
                               1, std::bind_front(run_collapse, ndp, n)});
              }
            }
            return pts;
          }};
}

}  // namespace ndpsim::figures
