// Ablation: which parts of the NDP switch actually matter?
//
// The paper motivates three changes over CP (§3.1): priority forwarding of
// headers with a 10:1 WRR cap, the 50% trim-position coin, and
// return-to-sender.  This bench disables one mechanism at a time and runs
// the two stress scenarios that exposed them:
//   (a) a 40:1 line-rate overload (collapse/fairness, Fig 2's setting),
//   (b) a 60:1 single-packet-flow incast (RTS's reason to exist, §3.2.4).
#include "common.h"
#include "ndp/ndp_queue.h"
#include "ndp/ndp_sink.h"
#include "ndp/ndp_source.h"
#include "ndp/pull_pacer.h"
#include "net/fifo_queues.h"

namespace ndpsim::figures {
namespace {

/// One switch variant: the published NDP queue with at most one mechanism
/// switched off.
struct variant {
  const char* name;
  ndp_queue_config cfg;
};

const variant kVariants[] = {
    {"full NDP queue", {}},
    // Strict header priority: the WRR cap removed.
    {"no WRR cap (strict header prio)", {.wrr_headers_per_data = 1u << 30}},
    // Always trim the arriving packet (CP-style victim choice).
    {"no trim coin (always arrival)", {.random_trim_position = false}},
    // Drop headers when the header queue fills.
    {"no return-to-sender", {.enable_rts = false}},
    // Plain drop-tail (the "who needs trimming" strawman).
    {"no trimming (drop-tail)", {.enable_trimming = false}},
};

queue_factory factory_for(sim_env& env, const ndp_queue_config& c) {
  return [&env, c](link_level level, std::size_t, linkspeed_bps rate,
                   const std::string& name) -> std::unique_ptr<queue_base> {
    if (level == link_level::host_up) {
      return std::make_unique<host_priority_queue>(env, rate, name);
    }
    return std::make_unique<ndp_queue>(env, rate, c, name);
  };
}

// (a) 40 unresponsive line-rate senders -> one port: mean and worst-10% of
// fair-share goodput.
metrics run_overload(const ndp_queue_config& qc, sim_env& env) {
  const std::size_t n = 40;
  const auto bytes =
      cbr_overload(env, n, factory_for(env, qc), 0, from_ms(4), from_ms(36));
  sample_set pct;
  const double fair =
      10e9 * 8936 / 9000 / static_cast<double>(n) * to_sec(from_ms(36)) / 8;
  for (const std::uint64_t b : bytes) {
    pct.add(100.0 * static_cast<double>(b) / fair);
  }
  return {{"goodput_pct_mean", pct.mean()},
          {"goodput_pct_worst10", pct.mean_lowest(0.10)}};
}

// (b) 60 single-window flows -> one port with a small header queue: how
// fast does everything complete, and how many RTOs were needed?
metrics run_tiny_flow_incast(ndp_queue_config qc, sim_env& env) {
  const std::size_t n = 60;
  qc.header_capacity_bytes = 8 * kHeaderBytes;  // stress the header queue
  single_switch star(env, n + 1, gbps(10), from_us(1), factory_for(env, qc));
  pull_pacer pacer(env, gbps(10));
  struct conn {
    std::unique_ptr<ndp_source> src;
    std::unique_ptr<ndp_sink> snk;
  };
  std::vector<conn> conns;
  ndp_source_config sc;
  sc.iw_packets = 30;
  sc.rto = from_ms(2);
  for (std::uint32_t s = 0; s < n; ++s) {
    conn c;
    c.src = std::make_unique<ndp_source>(env, sc, 100 + s);
    c.snk = std::make_unique<ndp_sink>(env, pacer, ndp_sink_config{}, 100 + s);
    c.src->connect(*c.snk, star.paths().all(s, static_cast<std::uint32_t>(n)),
                   s, static_cast<std::uint32_t>(n), 2 * 8936, 0);
    conns.push_back(std::move(c));
  }
  env.events.run_until(from_ms(100));
  std::size_t completed = 0;
  double last_fct_us = 0;
  double timeouts = 0;
  double bounces = 0;
  for (const auto& c : conns) {
    if (c.snk->complete()) {
      ++completed;
      last_fct_us = std::max(last_fct_us, to_us(c.snk->completion_time()));
    }
    timeouts += static_cast<double>(c.src->stats().rtx_after_timeout);
    bounces += static_cast<double>(c.src->stats().bounces_received);
  }
  return {{"completed", static_cast<double>(completed)},
          {"last_fct_us", last_fct_us},
          {"rto_retransmissions", timeouts},
          {"bounces", bounces}};
}

}  // namespace

figure ablation_ndp_queue() {
  return {"ablation_ndp_queue",
          "Ablation: NDP switch mechanisms (WRR / trim coin / RTS / trimming)",
          "removing WRR invites header-flood collapse under overload; removing "
          "the coin hurts worst-10% fairness; removing RTS turns header-queue "
          "overflow into RTO stalls; removing trimming is drop-tail (loss "
          "blind)",
          [](scale) {
            std::vector<point> pts;
            for (const variant& v : kVariants) {
              pts.push_back({std::string("overload: ") + v.name, 4,
                             std::bind_front(run_overload, v.cfg)});
            }
            for (const variant& v : kVariants) {
              pts.push_back({std::string("tiny-flow incast: ") + v.name, 6,
                             std::bind_front(run_tiny_flow_incast, v.cfg)});
            }
            return pts;
          }};
}

}  // namespace ndpsim::figures
