// Helpers shared by the figure definitions in this directory.
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "figures.h"
#include "harness/queue_factory.h"
#include "topo/micro_topo.h"
#include "topo/path_table.h"
#include "workload/cbr_source.h"

namespace ndpsim::figures {

/// FatTree k for "the 432-host topology" experiments (k=12 at paper scale).
inline unsigned default_k(scale s) { return s == scale::paper ? 12 : 8; }

/// Runs `trials` independent repetitions: the first on the point's env
/// (seeded `seed`), repetition t on a fresh env seeded `seed + t`.
template <class Fn>
void for_each_trial(sim_env& env, std::uint64_t seed, int trials, Fn&& fn) {
  fn(env);
  for (int t = 1; t < trials; ++t) {
    sim_env trial_env(seed + static_cast<std::uint64_t>(t));
    fn(trial_env);
  }
}

/// Fig 2's overload: `n` unresponsive line-rate 9K-MTU senders into the last
/// port of a 10Gb/s single switch whose queues `factory` builds; sender i
/// starts at i * `start_spacing`.  Returns each sender's payload bytes
/// delivered over [warmup, warmup + measure).
inline std::vector<std::uint64_t> cbr_overload(sim_env& env, std::size_t n,
                                               const queue_factory& factory,
                                               simtime_t start_spacing,
                                               simtime_t warmup,
                                               simtime_t measure) {
  single_switch star(env, n + 1, gbps(10), from_us(1), factory);
  const auto rx = static_cast<std::uint32_t>(n);
  std::vector<std::unique_ptr<cbr_source>> sources;
  std::vector<std::unique_ptr<counting_sink>> sinks;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto sink = std::make_unique<counting_sink>(env);
    // Send jitter plus per-sender clock skew model OS/NIC timing
    // variability and crystal tolerance (the paper notes real-world phase
    // effects are partially masked by exactly this); skew makes sender
    // phases precess through each other instead of locking.
    const double skew =
        1.0 + (static_cast<double>((i * 7919u) % 101u) - 50.0) * 1e-4;
    auto src = std::make_unique<cbr_source>(
        env, static_cast<linkspeed_bps>(10e9 * skew), 9000, i, 0.10);
    src->start(star.paths().single(i, rx, 0), sink.get(), i, rx,
               static_cast<simtime_t>(i) * start_spacing);
    sources.push_back(std::move(src));
    sinks.push_back(std::move(sink));
  }
  env.events.run_until(warmup);
  std::vector<std::uint64_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) bytes[i] = sinks[i]->payload_bytes();
  env.events.run_until(warmup + measure);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = sinks[i]->payload_bytes() - bytes[i];
  }
  return bytes;
}

/// Metric name with a zero-padded index, so a series sorts in order
/// ("decile_03_gbps").
inline std::string indexed(const char* prefix, long i, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s_%02ld_%s", prefix, i, suffix);
  return buf;
}

/// The per-flow goodput curve of Figs 14 and 22 from its ascending series:
/// min, p10, median, max and the 11 deciles (min, 10%, ..., max).
inline void add_flow_gbps(metrics& m, const std::vector<double>& ascending) {
  const std::size_t n = ascending.size();
  m["min_gbps"] = ascending.front();
  m["p10_gbps"] = ascending[n / 10];
  m["median_gbps"] = ascending[n / 2];
  m["max_gbps"] = ascending.back();
  for (long d = 0; d <= 10; ++d) {
    const std::size_t i = std::min(n - 1, static_cast<std::size_t>(d) * n / 10);
    m[indexed("decile", d, "gbps")] = ascending[i];
  }
}

}  // namespace ndpsim::figures
