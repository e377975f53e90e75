// perfbench: one measured unit of one benchmark workload, run through the
// simulator's public API.  `run.py` in this directory builds this binary,
// runs it several times and aggregates what it prints.
//
//   perfbench --workload <name> --seed <n> [--traced] [--tiny]
//             [--horizon-us <t>] [--trace-out <file>] [--work-dir <dir>]
//
// Untraced (default): set up the workload, run its timed phase once, check
// the outputs, print one JSON line with the end-to-end measurements.
// Traced: run the unit untraced, then again with the telemetry plane armed
// and every benchmark call into a layer wrapped in a span; check that both
// runs produced the same model digest, and print the per-layer metrics.
//
// Workloads (the benchmark draws pairs and sizes from its own RNG, seeded by
// --seed; the sim_env seed is derived from the same value):
//   perm_k32_ndp            8192-host NDP permutation, fixed 200 us horizon
//   web_open_k8_dctcp       open-loop Poisson web-mix flows at 60% load,
//                           128 hosts, DCTCP, through flow_recycler
//   incast_campaign_k4_ndp  fixed list of 15->1 NDP incasts on one shared
//                           k=4 blueprint, campaign_runner with 2 workers
//
// --tiny shrinks every workload for the self-test; --horizon-us overrides
// the simulated horizon (the per-job deadline for the campaign), which the
// self-test uses to force unfinished flows.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/campaign_runner.h"
#include "harness/experiments.h"
#include "harness/flow_recycler.h"
#include "sim/assert.h"
#include "sim/telemetry.h"
#include "stats/fct_summary.h"
#include "topo/path_table.h"
#include "trace.h"
#include "workload/size_distributions.h"
#include "workload/traffic_matrix.h"

namespace perfbench {
namespace {

using namespace ndpsim;

// Events per timed chunk of the event loop: large enough that the two clock
// reads per chunk vanish, small enough to give thousands of ns/event samples.
constexpr std::uint64_t kChunkEvents = 4096;

struct params {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool tiny = false;
  unsigned reps = 1;  ///< untraced units per process
  double horizon_us = -1;  ///< < 0: the workload's own horizon
  std::string trace_out;
  std::string work_dir = ".";
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
/// Independent streams from one benchmark seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(splitmix64(seed) ^ (stream * 0xd1b54a32d192ed03ULL));
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Digest accumulator over simulated outputs (FNV-1a, the repo's hash).
struct digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  template <typename T>
  void add(const T& v) {
    h = fnv1a_64(&v, sizeof v, h);
  }
  void add_bytes(const std::string& s) { h = fnv1a_64(s.data(), s.size(), h); }
};

struct metric {
  double value = 0;
  const char* unit = "";
};

/// Everything one unit reports.  End-to-end fields are filled on every run;
/// `layers` only on the traced run.
struct unit {
  double setup_s = 0;
  double wall_s = 0;  ///< timed phase, wall clock
  double cpu_s = 0;   ///< timed phase, process CPU (all threads)
  double payload_mb = 0;
  std::uint64_t started = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::string error;                ///< simulation_error text, if any
  std::vector<std::string> checks;  ///< failed correctness checks
  std::map<std::string, metric> layers;

  void check(bool ok, const std::string& what) {
    if (!ok) checks.push_back(what);
  }
};

/// Counters the unit collects on both runs (cheap: no clocks per event).
struct sim_counters {
  std::uint64_t events = 0;
  std::uint64_t heap = 0;
  std::uint64_t flat_events = 0;
  std::uint64_t flat_runs = 0;
  std::size_t pool_peak = 0;
  std::size_t live_flows_peak = 0;

  void add_env(const sim_env& env) {
    const auto& ds = env.events.dispatch_stats();
    events += env.events.events_processed();
    heap += ds.heap_events;
    flat_events += ds.flat_events;
    flat_runs += ds.flat_runs;
    pool_peak = std::max(pool_peak, env.pool.capacity());
  }
};

/// Telemetry totals plus the conservation laws over them.
struct net_totals {
  std::uint64_t enq_pkts = 0;
  std::uint64_t trim_pkts = 0;
  std::uint64_t mark_pkts = 0;
  std::uint64_t stale_drops = 0;
  bool conserved = true;

  /// Fold one env's plane in, checking the queue laws (with the packets
  /// still resident in the fabric) and the demux law.
  void add(const telemetry_plane& plane, const fat_tree& ft) {
    const telemetry_counters q = plane.totals(telemetry_kind::queue);
    const telemetry_counters d = plane.totals(telemetry_kind::demux);
    std::uint64_t res_pkts = 0;
    std::uint64_t res_bytes = 0;
    for (const link_level lvl :
         {link_level::host_up, link_level::tor_up, link_level::agg_up,
          link_level::core_down, link_level::agg_down, link_level::tor_down}) {
      for (const queue_base* qb : ft.queues_at(lvl)) {
        res_pkts += qb->buffered_packets() + (qb->busy() ? 1 : 0);
        res_bytes += qb->buffered_bytes() + qb->serving_bytes();
      }
    }
    conserved = conserved &&
                q.enq_pkts == q.deq_pkts + q.drop_pkts + q.bounce_pkts +
                                  res_pkts &&
                q.enq_bytes == q.deq_bytes + q.drop_bytes + q.bounce_bytes +
                                   q.trim_bytes + res_bytes &&
                d.enq_pkts == d.deq_pkts + d.stale_drops;
    enq_pkts += q.enq_pkts;
    trim_pkts += q.trim_pkts;
    mark_pkts += q.mark_pkts;
    stale_drops += d.stale_drops;
  }
};

/// State shared by one unit's helpers.
struct run_ctx {
  run_ctx(const params& params_in, tracer* tracer_in)
      : p(params_in), tr(tracer_in) {}

  const params& p;
  tracer* tr;  ///< null on the untraced run
  std::int64_t t0 = 0;  ///< workload start (inputs already drawn)
  sim_counters sim;
  net_totals net;
  /// Traced run only: CPU ns per event of each loop chunk (campaign: of
  /// each job's run_incast).
  std::vector<double> chunk_ns_per_event;
  double blueprint_s = 0;
  std::vector<double> instance_s;
  double blueprint_mb = 0;
  double route_mb = 0;
  std::vector<double> job_ms;
  double stats_s = 0;
  std::uint64_t stats_flows = 0;
  std::uint64_t ndp_pkts = 0;
  std::uint64_t ndp_rtx = 0;
  std::uint64_t ndp_rto_rtx = 0;
  double campaign_overhead = 0;
  double fct_p50_us = 0;
  double fct_p99_us = 0;
  double goodput_gbps = 0;
  std::mutex mu;  // guards the fields above that campaign jobs update
};

std::shared_ptr<const fabric_blueprint> build_blueprint(run_ctx& c, unsigned k,
                                                        const fabric_params& fp) {
  const std::int64_t t = wall_ns();
  std::shared_ptr<const fabric_blueprint> bp;
  {
    span_guard s(c.tr, "make_fat_tree_blueprint", layer::topo);
    bp = make_fat_tree_blueprint(k, fp);
  }
  c.blueprint_s = seconds(wall_ns() - t);
  c.blueprint_mb = static_cast<double>(bp->resident_bytes()) / 1e6;
  return bp;
}

std::unique_ptr<testbed> build_testbed(
    run_ctx& c, sim_env& env, const std::shared_ptr<const fabric_blueprint>& bp,
    const fabric_params& fp) {
  if (c.tr != nullptr) {
    span_guard s(c.tr, "telemetry_plane", layer::sim);
    env.telemetry = std::make_shared<telemetry_plane>(bp->n_slots(), bp.get());
  }
  const std::int64_t t = wall_ns();
  std::unique_ptr<testbed> bed;
  {
    span_guard s(c.tr, "testbed", layer::topo);
    bed = std::make_unique<testbed>(env, bp, fp);
  }
  const std::lock_guard<std::mutex> lk(c.mu);
  c.instance_s.push_back(seconds(wall_ns() - t));
  return bed;
}

/// Tear the fabric (and every flow it owns) down inside a span, so the cost
/// is charged to topo rather than to the benchmark.
void destroy_testbed(run_ctx& c, std::unique_ptr<testbed>& bed) {
  span_guard s(c.tr, "~testbed", layer::topo);
  bed.reset();
}

/// Drive the event loop in chunks of >= kChunkEvents events (whole
/// timestamp batches, so lane runs keep their flat dispatch) until `done`
/// or the first batch at or past `horizon`.  Traced: one span per chunk.
template <typename Done, typename OnChunk>
void run_loop(run_ctx& c, sim_env& env, simtime_t horizon, Done done,
              OnChunk on_chunk) {
  bool drained = false;
  while (!drained && !done() && env.now() < horizon) {
    const std::int64_t cpu0 = c.tr != nullptr ? thread_cpu_ns() : 0;
    std::uint64_t n = 0;
    {
      span_guard s(c.tr, "run_next_batch", layer::sim);
      while (n < kChunkEvents && !done() && env.now() < horizon) {
        const std::size_t got = env.events.run_next_batch();
        if (got == 0) {
          drained = true;
          break;
        }
        n += got;
      }
      s.set_count(n);
    }
    if (c.tr != nullptr && n >= kChunkEvents) {
      c.chunk_ns_per_event.push_back(
          static_cast<double>(thread_cpu_ns() - cpu0) / static_cast<double>(n));
    }
    on_chunk();
  }
}

// ---------------------------------------------------------------------------
// perm_k32_ndp
// ---------------------------------------------------------------------------

unit run_perm(run_ctx& c) {
  unit u;
  const unsigned k = c.p.tiny ? 8 : 32;
  const simtime_t horizon =
      c.p.horizon_us >= 0 ? from_us(c.p.horizon_us) : from_us(200);
  fabric_params fp;
  fp.proto = protocol::ndp;

  // Inputs: a random derangement and per-flow start jitter.
  std::mt19937_64 rng(derive(c.p.seed, 1));
  const std::size_t n = std::size_t{k} * k * k / 4;
  std::vector<std::uint32_t> dst;
  {
    span_guard s(c.tr, "permutation_matrix", layer::workload);
    dst = permutation_matrix(rng, n);
  }
  std::vector<simtime_t> start(n);
  for (simtime_t& t : start) {
    t = static_cast<simtime_t>(rng() % 100) * kMicrosecond / 10;
  }

  c.t0 = wall_ns();
  const auto bp = build_blueprint(c, k, fp);
  sim_env env(derive(c.p.seed, 2));
  auto bed = build_testbed(c, env, bp, fp);
  std::vector<flow*> flows;
  flows.reserve(n);
  for (std::uint32_t h = 0; h < n; ++h) {
    flow_options o;
    o.start = start[h];
    span_guard s(c.tr, "flow_factory::create", layer::harness);
    flows.push_back(&bed->flows->create(protocol::ndp, h, dst[h], o));
  }
  u.started = n;
  u.setup_s = seconds(wall_ns() - c.t0);

  const std::int64_t w0 = wall_ns();
  const std::int64_t c0 = process_cpu_ns();
  try {
    run_loop(c, env, horizon, [] { return false; }, [] {});
  } catch (const simulation_error& e) {
    u.error = e.what();
  }
  u.wall_s = seconds(wall_ns() - w0);
  u.cpu_s = seconds(process_cpu_ns() - c0);

  digest d;
  std::uint64_t bytes = 0;
  for (const flow* f : flows) {
    const std::uint64_t got = f->payload_received();
    d.add(got);
    bytes += got;
    if (got == 0) ++u.failed;
  }
  d.add(env.events.events_processed());
  u.digest = d.h;
  u.payload_mb = static_cast<double>(bytes) / 1e6;
  u.check(u.failed == 0, "every permutation flow delivered payload");

  c.sim.add_env(env);
  c.sim.live_flows_peak = bed->flows->live_count();
  c.route_mb = static_cast<double>(bed->topo->paths().resident_bytes()) / 1e6;
  c.job_ms.push_back(u.wall_s * 1e3);
  if (c.tr != nullptr) c.net.add(*env.telemetry, *bed->topo);
  {
    // Per-flow goodput distribution over the horizon (stats layer).
    const std::int64_t t = wall_ns();
    span_guard s(c.tr, "sample_set::mean", layer::stats);
    sample_set gbps;
    for (const flow* f : flows) {
      gbps.add(static_cast<double>(f->payload_received()) * 8 /
               to_sec(env.now()) / 1e9);
    }
    c.goodput_gbps = gbps.mean();
    c.stats_s = seconds(wall_ns() - t);
    c.stats_flows = n;
  }
  for (flow* f : flows) {
    if (const ndp_source* src = f->ndp_src(); src != nullptr) {
      c.ndp_pkts += src->stats().packets_sent;
      c.ndp_rtx += src->stats().rtx_after_nack + src->stats().rtx_after_bounce +
                   src->stats().rtx_after_timeout;
      c.ndp_rto_rtx += src->stats().rtx_after_timeout;
    }
  }
  destroy_testbed(c, bed);
  return u;
}

// ---------------------------------------------------------------------------
// web_open_k8_dctcp
// ---------------------------------------------------------------------------

/// `n` sizes from the Fig 23 web mix, stratified: each is drawn from its own
/// 1/n quantile band of a 32x larger sample, then the order is shuffled.
/// The mix is heavy-tailed (the top 1% carries most bytes), so independent
/// draws would change a run's total bytes by several percent between seeds;
/// stratifying keeps the byte total, and so the amount of work, steady while
/// the seed still picks every size and its position.
std::vector<std::uint64_t> web_sizes(std::mt19937_64& rng, std::size_t n) {
  constexpr std::size_t kOver = 32;
  std::vector<std::uint64_t> pool(n * kOver);
  for (std::uint64_t& s : pool) s = facebook_web_sizes().sample(rng);
  std::sort(pool.begin(), pool.end());
  std::vector<std::uint64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = pool[i * kOver + rng() % kOver];
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

unit run_web(run_ctx& c) {
  unit u;
  const unsigned k = c.p.tiny ? 4 : 8;
  const std::size_t n_flows = c.p.tiny ? 300 : 12'000;
  constexpr double kLoad = 0.6;
  const simtime_t horizon =
      c.p.horizon_us >= 0 ? from_us(c.p.horizon_us) : from_sec(10.0);
  fabric_params fp;
  fp.proto = protocol::dctcp;
  const std::size_t n_hosts = std::size_t{k} * k * k / 4;

  // Inputs: uniform random pairs and web-mix sizes, drawn up front.
  std::mt19937_64 rng(derive(c.p.seed, 1));
  std::vector<std::uint64_t> sizes;
  {
    span_guard s(c.tr, "facebook_web_sizes", layer::workload);
    sizes = web_sizes(rng, n_flows);
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(n_flows);
  for (auto& [src, dst] : pairs) {
    src = static_cast<std::uint32_t>(rng() % n_hosts);
    dst = static_cast<std::uint32_t>(rng() % (n_hosts - 1));
    if (dst >= src) ++dst;
  }
  double mean_bytes = 0;
  for (const std::uint64_t s : sizes) mean_bytes += static_cast<double>(s);
  mean_bytes /= static_cast<double>(n_flows);

  c.t0 = wall_ns();
  const auto bp = build_blueprint(c, k, fp);
  sim_env env(derive(c.p.seed, 2));
  auto bed = build_testbed(c, env, bp, fp);
  std::size_t next_pair = 0;
  std::size_t next_size = 0;
  recycler_config rc;
  rc.proto = protocol::dctcp;
  rc.max_starts = n_flows;
  rc.open_rate_per_sec = kLoad * static_cast<double>(n_hosts) *
                         static_cast<double>(bp->config().link_speed) /
                         (8.0 * mean_bytes);
  std::unique_ptr<flow_recycler> rec;
  {
    span_guard s(c.tr, "flow_recycler::start", layer::harness);
    rec = std::make_unique<flow_recycler>(
        env, *bed->topo, *bed->flows, rc,
        [&](sim_env&) { return pairs[next_pair++ % n_flows]; },
        [&](sim_env&) { return sizes[next_size++ % n_flows]; });
    rec->start(1);
  }
  u.setup_s = seconds(wall_ns() - c.t0);

  const std::int64_t w0 = wall_ns();
  const std::int64_t c0 = process_cpu_ns();
  try {
    run_loop(
        c, env, horizon,
        [&] { return rec->fcts().completed() >= n_flows; },
        [&] {
          c.sim.live_flows_peak =
              std::max(c.sim.live_flows_peak, bed->flows->live_count());
        });
  } catch (const simulation_error& e) {
    u.error = e.what();
  }
  u.wall_s = seconds(wall_ns() - w0);
  u.cpu_s = seconds(process_cpu_ns() - c0);
  rec->stop();

  const fct_recorder& fcts = rec->fcts();
  u.started = rec->flows_started();
  u.failed = u.started - fcts.completed();
  u.check(u.started == n_flows && u.failed == 0,
          "web workload completed every flow it started");
  digest d;
  std::uint64_t bytes = 0;
  for (const fct_recorder::record& r : fcts.records()) {
    d.add(r.flow_id);
    d.add(r.start);
    d.add(r.end);
    d.add(r.bytes);
    bytes += r.bytes;
  }
  d.add(env.events.events_processed());
  u.digest = d.h;
  u.payload_mb = static_cast<double>(bytes) / 1e6;

  c.sim.add_env(env);
  c.route_mb = static_cast<double>(bed->topo->paths().resident_bytes()) / 1e6;
  c.job_ms.push_back(u.wall_s * 1e3);
  if (c.tr != nullptr) c.net.add(*env.telemetry, *bed->topo);
  {
    const std::int64_t t = wall_ns();
    span_guard s(c.tr, "fct_summary::from_recorder", layer::stats);
    const fct_summary sum = fct_summary::from_recorder(fcts);
    c.fct_p50_us = sum.quantile_us(0.5);
    c.fct_p99_us = sum.quantile_us(0.99);
    c.stats_s = seconds(wall_ns() - t);
    c.stats_flows = sum.flows;
  }
  const double sim_s = to_sec(env.now());
  c.goodput_gbps = sim_s > 0 ? static_cast<double>(bytes) * 8 / sim_s / 1e9 /
                                   static_cast<double>(n_hosts)
                             : 0;
  {
    span_guard s(c.tr, "~flow_recycler", layer::harness);
    rec.reset();
  }
  destroy_testbed(c, bed);
  return u;
}

// ---------------------------------------------------------------------------
// incast_campaign_k4_ndp
// ---------------------------------------------------------------------------

struct incast_job {
  std::uint32_t receiver = 0;
  std::uint64_t bytes = 0;
};

unit run_campaign(run_ctx& c) {
  namespace fs = std::filesystem;
  unit u;
  const std::size_t n_jobs = c.p.tiny ? 6 : 240;
  constexpr unsigned kK = 4;
  constexpr unsigned kWorkers = 2;
  const simtime_t deadline =
      c.p.horizon_us >= 0 ? from_us(c.p.horizon_us) : from_ms(200);
  fabric_params fp;
  fp.proto = protocol::ndp;
  const std::uint32_t n_hosts = kK * kK * kK / 4;

  // Inputs: per job a random receiver (the other 15 hosts send) and a size
  // from a fixed cycle of 45 KB .. 450 KB per sender.
  std::mt19937_64 rng(derive(c.p.seed, 1));
  std::vector<incast_job> jobs(n_jobs);
  std::vector<experiment_config> configs(n_jobs);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    jobs[j].receiver = static_cast<std::uint32_t>(rng() % n_hosts);
    jobs[j].bytes = 45'000 * (1 + j % 10);
    configs[j].name = "incast_" + std::to_string(j);
    configs[j].seed = derive(c.p.seed, 1000 + j);
    configs[j].param = static_cast<std::int64_t>(j);
  }
  const std::string dir =
      (fs::path(c.p.work_dir) /
       ("campaign-" + std::to_string(::getpid()) + (c.tr ? "-traced" : "")))
          .string();
  fs::remove_all(dir);

  std::vector<std::uint64_t> completed(n_jobs, 0);
  std::vector<double> job_ms(n_jobs, 0);
  std::vector<std::int64_t> first_event(n_jobs, 0);
  std::vector<std::int64_t> job_cpu(n_jobs, 0);

  c.t0 = wall_ns();
  const auto bp = build_blueprint(c, kK, fp);
  std::uint32_t campaign_span = 0;
  const experiment_fn body = [&](const experiment_config& cfg, sim_env& env,
                                 fct_recorder& fcts) {
    const std::size_t j = static_cast<std::size_t>(cfg.param);
    const std::int64_t w = wall_ns();
    const std::int64_t cpu = thread_cpu_ns();
    span_guard js(c.tr, "job", layer::bench, static_cast<std::int64_t>(j),
                  campaign_span);
    auto bed = build_testbed(c, env, bp, fp);
    std::vector<std::uint32_t> senders;
    for (std::uint32_t h = 0; h < n_hosts; ++h) {
      if (h != jobs[j].receiver) senders.push_back(h);
    }
    first_event[j] = wall_ns();
    incast_result r;
    const std::int64_t loop_cpu = c.tr != nullptr ? thread_cpu_ns() : 0;
    {
      // run_incast is 15 flow creations plus the event loop to completion;
      // the loop is all but a few microseconds of it, so it counts as sim.
      span_guard s(c.tr, "run_incast", layer::sim);
      r = run_incast(*bed, protocol::ndp, senders, jobs[j].receiver,
                     jobs[j].bytes, flow_options{}, deadline);
      s.set_count(env.events.events_processed());
    }
    const double loop_ns_per_event =
        c.tr != nullptr
            ? static_cast<double>(thread_cpu_ns() - loop_cpu) /
                  static_cast<double>(
                      std::max<std::uint64_t>(1, env.events.events_processed()))
            : 0;
    {
      span_guard s(c.tr, "fct_recorder", layer::stats);
      for (const auto& f : bed->flows->flows()) {
        if (f == nullptr) continue;
        fcts.flow_started(f->id, f->start_time, f->bytes);
        if (f->complete()) fcts.flow_completed(f->id, f->completion_time());
      }
    }
    completed[j] = r.completed;
    {
      const std::lock_guard<std::mutex> lk(c.mu);
      c.sim.add_env(env);
      c.sim.live_flows_peak =
          std::max(c.sim.live_flows_peak, bed->flows->flows().size());
      c.route_mb = std::max(
          c.route_mb,
          static_cast<double>(bed->topo->paths().resident_bytes()) / 1e6);
      c.ndp_pkts += r.packets_sent;
      c.ndp_rtx += r.rtx_after_nack + r.rtx_after_bounce + r.rtx_after_timeout;
      c.ndp_rto_rtx += r.rtx_after_timeout;
      if (c.tr != nullptr) {
        c.chunk_ns_per_event.push_back(loop_ns_per_event);
        c.net.add(*env.telemetry, *bed->topo);
      }
    }
    destroy_testbed(c, bed);
    job_ms[j] = static_cast<double>(wall_ns() - w) / 1e6;
    job_cpu[j] = thread_cpu_ns() - cpu;
  };

  campaign_config cc;
  cc.dir = dir;
  cc.threads = kWorkers;
  campaign_result res;
  const std::int64_t w0 = wall_ns();
  const std::int64_t c0 = process_cpu_ns();
  try {
    span_guard s(c.tr, "campaign_runner::run", layer::harness, kNoTrace,
                 tracer::kInherit, cpu_scope::process);
    campaign_span = s.id();
    res = campaign_runner(cc).run(configs, body);
  } catch (const simulation_error& e) {
    u.error = e.what();
  }
  u.wall_s = seconds(wall_ns() - w0);
  u.cpu_s = seconds(process_cpu_ns() - c0);
  const std::int64_t first =
      *std::min_element(first_event.begin(), first_event.end());
  u.setup_s = first > 0 ? seconds(first - c.t0) : seconds(w0 - c.t0);

  u.started = n_jobs * (n_hosts - 1);
  std::uint64_t done = 0;
  for (const std::uint64_t n : completed) done += n;
  u.failed = u.started - done;
  u.check(u.failed == 0, "every incast flow completed");
  u.check(u.error.empty() && res.completed && res.summaries.size() == n_jobs,
          "campaign merged every job");
  u.check(res.journal_rejects == 0 && res.spill_rejects == 0,
          "campaign journal_rejects == 0");
  if (res.completed) {
    std::ifstream merged(res.merged_path);
    std::size_t lines = 0;
    for (std::string l; std::getline(merged, l);) lines += l.empty() ? 0 : 1;
    u.check(lines == n_jobs, "results.jsonl holds one line per job");
  }

  // Digest over the merged per-job summaries, minus the telemetry totals
  // (present only on the traced run).
  digest d;
  std::uint64_t bytes = 0;
  for (fct_summary s : res.summaries) {
    s.tele = telemetry_summary{};
    d.add_bytes(s.to_jsonl());
    bytes += s.bytes;
  }
  u.digest = d.h;
  u.payload_mb = static_cast<double>(bytes) / 1e6;
  c.job_ms = job_ms;
  {
    const std::int64_t t = wall_ns();
    span_guard s(c.tr, "campaign_result::total", layer::stats);
    const fct_summary total = res.total();
    c.fct_p50_us = total.quantile_us(0.5);
    c.fct_p99_us = total.quantile_us(0.99);
    c.stats_s = seconds(wall_ns() - t);
    c.stats_flows = total.flows;
    double sim_s = 0;
    for (const fct_summary& js : res.summaries) sim_s += js.max_us / 1e6;
    c.goodput_gbps = sim_s > 0 ? static_cast<double>(bytes) * 8 / sim_s / 1e9
                               : 0;
  }
  if (c.tr != nullptr) {
    std::int64_t bodies = 0;
    for (const std::int64_t v : job_cpu) bodies += v;
    c.campaign_overhead =
        u.cpu_s > 0 ? 1.0 - seconds(bodies) / u.cpu_s : 0;
  }
  fs::remove_all(dir);
  return u;
}

unit run_workload(run_ctx& c) {
  if (c.p.workload == "perm_k32_ndp") return run_perm(c);
  if (c.p.workload == "web_open_k8_dctcp") return run_web(c);
  if (c.p.workload == "incast_campaign_k4_ndp") return run_campaign(c);
  throw std::invalid_argument("unknown workload: " + c.p.workload);
}

/// Per-layer metrics of a traced unit.
void fill_layers(unit& u, run_ctx& c, const tracer& tr, double traced_cpu_s,
                 double untraced_cpu_s) {
  const auto put = [&u](const std::string& name, double v, const char* unit) {
    u.layers[name] = metric{v, unit};
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto self = tr.self_seconds();
  double self_sum = 0;
  for (std::size_t i = 0; i < kLayers; ++i) {
    put(std::string(to_string(static_cast<layer>(i))) + ".self_s", self[i],
        "s");
    self_sum += self[i];
  }
  put("trace.self_sum_share", ratio(self_sum, traced_cpu_s), "ratio");
  put("trace.overhead", ratio(traced_cpu_s, untraced_cpu_s), "ratio");

  const double ev = static_cast<double>(c.sim.events);
  const std::vector<double>& ns = c.chunk_ns_per_event;
  put("sim.events", ev, "count");
  put("sim.ns_per_event", quantile(ns, 0.5), "ns");
  put("sim.ns_per_event_p10", quantile(ns, 0.1), "ns");
  put("sim.ns_per_event_p90", quantile(ns, 0.9), "ns");
  put("sim.ns_per_event_samples", static_cast<double>(ns.size()), "count");
  put("sim.events_per_cpu_s",
      ratio(ev, self[static_cast<std::size_t>(layer::sim)]), "1/s");
  put("sim.heap_share", ratio(static_cast<double>(c.sim.heap), ev), "ratio");
  put("sim.flat_run_len",
      ratio(static_cast<double>(c.sim.flat_events),
            static_cast<double>(c.sim.flat_runs)),
      "events");

  const double enq = static_cast<double>(c.net.enq_pkts);
  put("net.pkts_per_mb", ratio(enq, u.payload_mb), "1/MB");
  put("net.trim_share", ratio(static_cast<double>(c.net.trim_pkts), enq),
      "ratio");
  put("net.mark_share", ratio(static_cast<double>(c.net.mark_pkts), enq),
      "ratio");
  put("net.stale_drops", static_cast<double>(c.net.stale_drops), "count");
  put("net.pool_peak_pkts", static_cast<double>(c.sim.pool_peak), "count");

  put("topo.blueprint_s", c.blueprint_s, "s");
  put("topo.instance_s", quantile(c.instance_s, 0.5), "s");
  put("topo.blueprint_mb", c.blueprint_mb, "MB");
  put("topo.route_mb", c.route_mb, "MB");

  put("harness.flows_per_cpu_s", ratio(static_cast<double>(u.started), u.cpu_s),
      "1/s");
  put("harness.live_flows_peak", static_cast<double>(c.sim.live_flows_peak),
      "count");
  put("harness.job_p50_ms", quantile(c.job_ms, 0.5), "ms");
  put("harness.job_p99_ms", quantile(c.job_ms, 0.99), "ms");
  put("harness.campaign_overhead_share", c.campaign_overhead, "ratio");

  put("stats.summary_us_per_flow",
      ratio(c.stats_s * 1e6, static_cast<double>(c.stats_flows)), "us");

  put("ndp.rtx_per_pkt",
      ratio(static_cast<double>(c.ndp_rtx), static_cast<double>(c.ndp_pkts)),
      "ratio");
  put("ndp.rto_rtx_share",
      ratio(static_cast<double>(c.ndp_rto_rtx), static_cast<double>(c.ndp_rtx)),
      "ratio");

  // The top 52 bits of the digest: exact in a double.
  put("model.digest", static_cast<double>(u.digest >> 12), "hash");
  put("model.fct_p50_us", c.fct_p50_us, "us");
  put("model.fct_p99_us", c.fct_p99_us, "us");
  put("model.goodput_gbps", c.goodput_gbps, "Gb/s");
}

/// Run one unit, catching anything the library throws outside the loops.
unit run_unit(run_ctx& c) {
  try {
    return run_workload(c);
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception& e) {
    unit u;
    u.error = e.what();
    u.started = 1;
    u.failed = 1;
    return u;
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

void print_unit(const params& p, const unit& u) {
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"traced\":%s,\"setup_s\":%.9g,\"wall_s\":%.9g,\"cpu_s\":%.9g,"
              "\"payload_mb\":%.17g,\"started\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"peak_rss_mb\":%.6g,\"digest\":\"%016" PRIx64
              "\",\"error\":\"%s\",\"checks\":[",
              p.workload.c_str(), p.seed, p.traced ? "true" : "false",
              u.setup_s, u.wall_s, u.cpu_s, u.payload_mb, u.started, u.failed,
              peak_rss_mb(), u.digest, json_escape(u.error).c_str());
  for (std::size_t i = 0; i < u.checks.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", json_escape(u.checks[i]).c_str());
  }
  std::printf("],\"layers\":{");
  bool first = true;
  for (const auto& [k, m] : u.layers) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                first ? "" : ",", k.c_str(), m.value, m.unit);
    first = false;
  }
  std::printf("}}\n");
}

int run(const params& p) {
  if (!p.traced) {
    for (unsigned r = 0; r < p.reps; ++r) {
      run_ctx ctx(p, nullptr);
      const unit u = run_unit(ctx);
      if (!u.error.empty()) {
        std::fprintf(stderr, "perfbench: simulation error: %s\n",
                     u.error.c_str());
      }
      print_unit(p, u);
    }
    return 0;
  }

  run_ctx plain_ctx(p, nullptr);
  const std::int64_t p0 = process_cpu_ns();
  unit plain = run_unit(plain_ctx);
  const double plain_cpu = seconds(process_cpu_ns() - p0);
  if (!plain.error.empty()) {
    std::fprintf(stderr, "perfbench: simulation error: %s\n",
                 plain.error.c_str());
  }

  tracer tr;
  run_ctx traced_ctx(p, &tr);
  const std::int64_t t0 = process_cpu_ns();
  unit traced;
  {
    span_guard root(&tr, "unit", layer::bench, kNoTrace, tracer::kInherit,
                    cpu_scope::process);
    traced = run_unit(traced_ctx);
  }
  const double traced_cpu = seconds(process_cpu_ns() - t0);
  if (!traced.error.empty()) {
    std::fprintf(stderr, "perfbench: simulation error (traced): %s\n",
                 traced.error.c_str());
  }
  for (const std::string& chk : plain.checks) traced.checks.push_back(chk);
  traced.check(traced.digest == plain.digest,
               "traced and untraced runs share one model digest");
  fill_layers(traced, traced_ctx, tr, traced_cpu, plain_cpu);
  // Self times are differences of per-span CPU clocks; they must account
  // for the CPU the process spent on the traced unit.
  const double share = traced.layers["trace.self_sum_share"].value;
  traced.check(share > 0.97 && share < 1.03,
               "layer self times add up to the traced CPU time");
  traced.check(tr.min_self_seconds() > -1e-3, "no span has negative self time");
  traced.check(traced_ctx.net.conserved,
               "telemetry conservation holds on the traced totals");
  if (!p.trace_out.empty() && !tr.write_jsonl(p.trace_out)) {
    traced.check(false, "trace written to " + p.trace_out);
  }
  // End-to-end fields stay those of the untraced unit.
  traced.setup_s = plain.setup_s;
  traced.wall_s = plain.wall_s;
  traced.cpu_s = plain.cpu_s;
  print_unit(p, traced);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::params p;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        p.workload = value();
      } else if (a == "--seed") {
        p.seed = std::stoull(value());
      } else if (a == "--traced") {
        p.traced = true;
      } else if (a == "--reps") {
        p.reps = static_cast<unsigned>(std::stoul(value()));
      } else if (a == "--tiny") {
        p.tiny = true;
      } else if (a == "--horizon-us") {
        p.horizon_us = std::stod(value());
      } else if (a == "--trace-out") {
        p.trace_out = value();
      } else if (a == "--work-dir") {
        p.work_dir = value();
      } else {
        throw std::invalid_argument("unknown argument: " + a);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 2;
    }
  }
  try {
    return perfbench::run(p);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
