// The flow lifecycle engine: create/destroy symmetry, never-reused flow ids,
// pooled path subsets, demux shrink + stale-packet handling, the
// closed-loop flow_recycler, and the packet pool's order never reaching
// results.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "harness/experiments.h"
#include "harness/flow_recycler.h"
#include "net/fifo_queues.h"
#include "sim/assert.h"
#include "topo/fat_tree.h"
#include "topo/path_table.h"
#include "workload/size_distributions.h"
#include "test_util.h"

namespace ndpsim {
namespace {

queue_factory droptail_factory(sim_env& env) {
  return [&env](link_level, std::size_t, linkspeed_bps rate,
                const std::string& name) -> std::unique_ptr<queue_base> {
    return std::make_unique<drop_tail_queue>(env, rate, 100 * 9000, name);
  };
}

fat_tree_config ft_cfg(unsigned k) {
  fat_tree_config c;
  c.k = k;
  return c;
}

// ---------------------------------------------------------------------------
// flow_factory create/destroy symmetry and never-reused flow ids.
// ---------------------------------------------------------------------------

TEST(flow_lifecycle, destroy_frees_slot_and_recycles_id) {
  // What is recycled is the flow-table slot; the flow id is always fresh.
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(3, 4, fp);
  // Control packets of the completed flow are still in flight when it is
  // destroyed; they must die at the demux, as under the recycler.
  bed->topo->paths().enable_stale_drop(bed->env.pool);
  flow_options o;
  o.bytes = 5 * 8936;

  flow& a = bed->flows->create(protocol::ndp, 0, 15, o);
  const std::uint32_t id_a = a.id;
  run_until_complete(bed->env, {&a}, from_ms(50));
  ASSERT_TRUE(a.complete());
  EXPECT_EQ(bed->flows->live_count(), 1u);

  bed->flows->destroy(a);
  EXPECT_EQ(bed->flows->live_count(), 0u);
  EXPECT_EQ(bed->flows->destroyed_count(), 1u);

  // The replacement reuses the table slot but takes a fresh flow id.
  o.start = bed->env.now();
  flow& b = bed->flows->create(protocol::ndp, 0, 15, o);
  EXPECT_GT(b.id, id_a);
  EXPECT_EQ(bed->flows->flows().size(), 1u);

  // The new flow runs to completion with payload delivered to its own sink.
  run_until_complete(bed->env, {&b}, bed->env.now() + from_ms(50));
  EXPECT_TRUE(b.complete());
  EXPECT_EQ(b.payload_received(), o.bytes);
}

TEST(flow_lifecycle, mptcp_id_blocks_recycle_by_exact_span) {
  // An MPTCP connection consumes a block of `subflows + 1` ids; after it is
  // destroyed, no later id of either span falls inside that block.
  fabric_params mp;
  mp.proto = protocol::mptcp;
  auto mbed = make_fat_tree_testbed(4, 4, mp);
  flow_options mo;
  mo.bytes = 200'000;
  mo.subflows = 4;
  flow& m = mbed->flows->create(protocol::mptcp, 0, 15, mo);
  const std::uint32_t block = m.id;  // spans [block, block + 4]
  run_until_complete(mbed->env, {&m}, from_ms(200));
  ASSERT_TRUE(m.complete());
  mbed->flows->destroy(m);
  mo.start = mbed->env.now();
  const flow& s = mbed->flows->create(protocol::ndp, 1, 14, mo);
  const flow& m2 = mbed->flows->create(protocol::mptcp, 2, 13, mo);
  EXPECT_GT(s.id, block + 4);
  EXPECT_GT(m2.id, block + 4);
}

TEST(flow_lifecycle, destroy_unbinds_demux_entries) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(5, 4, fp);
  flow_options o;
  o.bytes = 3 * 8936;
  flow& f = bed->flows->create(protocol::ndp, 0, 15, o);
  path_table& pt = bed->topo->paths();
  EXPECT_EQ(pt.demux(0).bound_count(), 1u);
  EXPECT_EQ(pt.demux(15).bound_count(), 1u);
  run_until_complete(bed->env, {&f}, from_ms(50));
  ASSERT_TRUE(f.complete());
  bed->flows->destroy(f);
  EXPECT_EQ(pt.demux(0).bound_count(), 0u);
  EXPECT_EQ(pt.demux(15).bound_count(), 0u);
}

// ---------------------------------------------------------------------------
// Stale packets for a dead flow: dropped, not misdelivered.
// ---------------------------------------------------------------------------

TEST(flow_lifecycle, stale_packet_for_dead_flow_is_dropped_when_enabled) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  ft.paths().enable_stale_drop(env.pool);
  flow_demux& d = ft.paths().demux(15);

  testing::recording_sink live_ep(env);
  d.bind(7, &live_ep);

  // A packet for an unbound (torn down) flow id dies at the demux...
  packet* stale = env.pool.alloc();
  stale->type = packet_type::ndp_ack;
  stale->flow_id = 99;
  d.receive(*stale);
  EXPECT_EQ(d.stale_drops(), 1u);
  EXPECT_EQ(ft.paths().stale_drops(), 1u);
  EXPECT_EQ(live_ep.count(), 0u);  // ...and is NOT handed to another flow

  // ...while a packet for the live flow still reaches its endpoint.
  packet* good = env.pool.alloc();
  good->type = packet_type::ndp_ack;
  good->flow_id = 7;
  d.receive(*good);
  EXPECT_EQ(live_ep.count(), 1u);
  EXPECT_EQ(d.stale_drops(), 1u);
  EXPECT_EQ(env.pool.outstanding(), 0u);  // both packets returned to the pool
}

TEST(flow_lifecycle, stale_data_for_destroyed_flow_never_reaches_a_new_flow) {
  // A data packet of a destroyed A->B flow still in flight when B starts a
  // flow of its own: had B's new flow inherited the dead id, its *source*
  // would be bound under that id at B's demux and receive data it never
  // sent.  Fresh ids leave the old id unbound, so the packet is a stale drop.
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(3, 4, fp);
  path_table& pt = bed->topo->paths();
  pt.enable_stale_drop(bed->env.pool);
  flow_options o;
  o.bytes = 5 * 8936;
  flow& a = bed->flows->create(protocol::ndp, 0, 15, o);
  const std::uint32_t old_id = a.id;
  run_until_complete(bed->env, {&a}, from_ms(50));
  ASSERT_TRUE(a.complete());
  bed->flows->destroy(a);

  o.start = bed->env.now();
  const flow& b = bed->flows->create(protocol::ndp, 15, 14, o);
  EXPECT_NE(b.id, old_id);

  packet* stale = bed->env.pool.alloc();
  stale->type = packet_type::ndp_data;
  stale->flow_id = old_id;
  stale->size_bytes = 9000;
  stale->payload_bytes = 8936;
  EXPECT_NO_THROW(pt.demux(15).receive(*stale));
  EXPECT_EQ(pt.demux(15).stale_drops(), 1u);
}

TEST(flow_lifecycle, unbound_delivery_still_asserts_without_stale_policy) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  flow_demux& d = ft.paths().demux(15);
  packet* p = env.pool.alloc();
  p->flow_id = 42;
  EXPECT_THROW(d.receive(*p), simulation_error);
  env.pool.release(p);
}

// ---------------------------------------------------------------------------
// Pooled subset arrays in path_table::sample.
// ---------------------------------------------------------------------------

TEST(flow_lifecycle, released_subset_array_is_reused_bitwise) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  path_table& pt = ft.paths();

  path_set a = pt.sample(env, 0, 15, 2);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_NE(a.pool_token, 0u);
  const route* const* storage = a.fwd;

  // A second sample while `a` is live must NOT alias its arrays.
  path_set b = pt.sample(env, 0, 15, 2);
  ASSERT_NE(b.pool_token, 0u);
  EXPECT_NE(b.fwd, a.fwd);
  EXPECT_EQ(pt.subset_arrays(), 2u);

  // Releasing `a` and sampling the same size reuses `a`'s storage bitwise
  // (same pointer array, refilled) instead of growing the pool...
  const route* b0 = b.forward(0);
  const route* b1 = b.forward(1);
  pt.release(a);
  EXPECT_EQ(pt.free_subset_arrays(), 1u);
  path_set c = pt.sample(env, 0, 15, 2);
  EXPECT_EQ(c.fwd, storage);
  EXPECT_EQ(pt.subset_arrays(), 2u);
  EXPECT_EQ(pt.free_subset_arrays(), 0u);

  // ...and the live set `b` is untouched by the recycling.
  EXPECT_EQ(b.forward(0), b0);
  EXPECT_EQ(b.forward(1), b1);
}

TEST(flow_lifecycle, subset_double_release_asserts) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  path_set a = ft.paths().sample(env, 0, 15, 2);
  ft.paths().release(a);
  EXPECT_THROW(ft.paths().release(a), simulation_error);
}

TEST(flow_lifecycle, uncapped_and_single_views_are_not_pooled) {
  sim_env env;
  fat_tree ft(env, ft_cfg(4), droptail_factory(env));
  path_set all = ft.paths().all(0, 15);
  path_set one = ft.paths().single(0, 15, 0);
  EXPECT_EQ(all.pool_token, 0u);
  EXPECT_EQ(one.pool_token, 0u);
  ft.paths().release(all);  // no-ops
  ft.paths().release(one);
  EXPECT_EQ(ft.paths().subset_arrays(), 0u);
}

// ---------------------------------------------------------------------------
// flow_demux shrink under churn.
// ---------------------------------------------------------------------------

TEST(flow_lifecycle, demux_table_shrinks_after_mass_unbind) {
  flow_demux d;
  struct null_sink final : packet_sink {
    void receive(packet&) override {}
  } ep;
  for (std::uint32_t i = 1; i <= 1024; ++i) d.bind(i, &ep);
  const std::size_t peak = d.table_size();
  EXPECT_GE(peak, 2048u);  // load kept <= 1/2 on the way up

  for (std::uint32_t i = 1; i <= 1019; ++i) d.unbind(i);
  EXPECT_EQ(d.bound_count(), 5u);
  // Churn must not pin the probe table at its high-water size.
  EXPECT_LE(d.table_size(), 64u);
  // The survivors are still found after the rehashes.
  for (std::uint32_t i = 1020; i <= 1024; ++i) {
    EXPECT_EQ(d.endpoint_for(i), &ep);
  }
  EXPECT_EQ(d.endpoint_for(5), nullptr);
}

// ---------------------------------------------------------------------------
// The flow_recycler: closed-loop churn end to end.
// ---------------------------------------------------------------------------

TEST(flow_lifecycle, recycler_closed_loop_holds_memory_flat) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(9, 4, fp);
  const std::size_t pop = 8;

  // Fixed pairs 0->8, 1->9, ... cycled across generations.
  std::uint64_t cursor = 0;
  auto pick = [&cursor, pop](sim_env&) {
    const std::uint32_t src = static_cast<std::uint32_t>(cursor++ % pop);
    return std::make_pair(src, static_cast<std::uint32_t>(src + pop));
  };
  // Pre-intern so the flatness check measures churn, not lazy interning.
  for (std::uint32_t s = 0; s < pop; ++s) {
    (void)bed->topo->paths().all(s, s + pop);
  }

  recycler_config rc;
  rc.proto = protocol::ndp;
  rc.opts.bytes = 5 * 8936;
  rc.opts.max_paths = 2;
  rc.linger = from_us(100);
  flow_recycler rec(bed->env, *bed->topo, *bed->flows, rc, pick);
  rec.start(pop);

  while (rec.generations() < 1 && bed->env.events.run_next_event()) {
  }
  const std::size_t warm_slots = bed->flows->flows().size();
  const std::size_t warm_subsets = bed->topo->paths().subset_arrays();
  const std::size_t warm_bytes = bed->topo->paths().resident_bytes();

  while (rec.generations() < 5 && bed->env.events.run_next_event()) {
  }
  rec.stop();

  EXPECT_GE(rec.flows_recycled(), 4 * pop);
  EXPECT_EQ(bed->flows->flows().size(), warm_slots);
  EXPECT_EQ(bed->topo->paths().subset_arrays(), warm_subsets);
  EXPECT_EQ(bed->topo->paths().resident_bytes(), warm_bytes);
  EXPECT_LE(bed->flows->live_count(), pop + rec.lingering());

  // Per-generation FCT epochs: every completed generation recorded `pop`
  // flows, and later epochs exist (the recorder tags by generation).
  const fct_recorder& fcts = rec.fcts();
  EXPECT_GE(fcts.max_epoch(), 4u);
  EXPECT_EQ(fcts.completed_in_epoch(1), pop);
  EXPECT_EQ(fcts.completed_in_epoch(2), pop);
  EXPECT_GT(fcts.fct_us_epoch(1).size(), 0u);
}

TEST(flow_lifecycle, recycler_open_loop_poisson_arrivals_recycle_flows) {
  fabric_params fp;
  fp.proto = protocol::tcp;
  auto bed = make_fat_tree_testbed(10, 4, fp);

  auto pick = [](sim_env& env) {
    const auto src = static_cast<std::uint32_t>(env.rand_below(8));
    return std::make_pair(src, static_cast<std::uint32_t>(src + 8));
  };
  recycler_config rc;
  rc.proto = protocol::tcp;
  rc.opts.bytes = 2 * 8936;
  rc.opts.handshake = false;
  rc.linger = from_us(100);
  rc.open_rate_per_sec = 200'000;  // ~one arrival per 5us
  rc.max_starts = 60;
  flow_recycler rec(bed->env, *bed->topo, *bed->flows, rc, pick);
  rec.start(4);

  bed->env.events.run_until(from_ms(20));
  rec.stop();
  bed->env.events.run_until(from_ms(40));

  EXPECT_EQ(rec.flows_started(), 60u);
  EXPECT_GE(rec.fcts().completed(), 55u);  // nearly all arrivals finished
  EXPECT_GE(rec.flows_recycled(), 50u);
}

TEST(flow_lifecycle, recycler_works_for_every_transport) {
  for (protocol proto : {protocol::ndp, protocol::tcp, protocol::dctcp,
                         protocol::mptcp, protocol::dcqcn, protocol::phost}) {
    fabric_params fp;
    fp.proto = proto;
    auto bed = make_fat_tree_testbed(11, 4, fp);
    std::uint64_t cursor = 0;
    auto pick = [&cursor](sim_env&) {
      const std::uint32_t src = static_cast<std::uint32_t>(cursor++ % 4);
      return std::make_pair(src, static_cast<std::uint32_t>(src + 8));
    };
    recycler_config rc;
    rc.proto = proto;
    rc.opts.bytes = 3 * 8936;
    rc.opts.subflows = 2;
    rc.linger = from_us(200);
    rc.max_starts = 12;
    flow_recycler rec(bed->env, *bed->topo, *bed->flows, rc, pick);
    rec.start(4);
    bed->env.events.run_until(from_ms(400));
    EXPECT_EQ(rec.flows_started(), 12u) << to_string(proto);
    EXPECT_GE(rec.flows_recycled(), 8u) << to_string(proto);
    EXPECT_EQ(rec.fcts().completed(), 12u) << to_string(proto);
  }
}

// ---------------------------------------------------------------------------
// Pool order never reaches results: packet addresses do not feed the model,
// so a pool whose free list was scrambled before the run must produce the
// same FCT records and event count as a fresh one.
// ---------------------------------------------------------------------------

struct churn_outcome {
  std::vector<fct_recorder::record> records;
  std::uint64_t events = 0;
};

/// Grow `pool` by ~3,000 packets and hand them back in a seeded shuffled
/// order, so later allocations come from a scattered LIFO free list.  The
/// shuffle uses its own RNG: the simulator's stream must stay untouched.
void scramble_pool(packet_pool& pool) {
  std::vector<packet*> ps;
  for (int i = 0; i < 3000; ++i) ps.push_back(pool.alloc());
  std::mt19937_64 shuffle_rng(1234);
  std::shuffle(ps.begin(), ps.end(), shuffle_rng);
  for (packet* p : ps) pool.release(p);
}

churn_outcome run_open_loop_dctcp(bool scrambled) {
  fabric_params fp;
  fp.proto = protocol::dctcp;
  auto bed = make_fat_tree_testbed(12, 4, fp);
  if (scrambled) scramble_pool(bed->env.pool);
  auto pick = [](sim_env& env) {
    const auto src = static_cast<std::uint32_t>(env.rand_below(16));
    auto dst = static_cast<std::uint32_t>(env.rand_below(15));
    if (dst >= src) ++dst;
    return std::make_pair(src, dst);
  };
  auto size = [](sim_env& env) {
    return std::min<std::uint64_t>(facebook_web_sizes().sample(env.rng),
                                   200'000);
  };
  recycler_config rc;
  rc.proto = protocol::dctcp;
  rc.linger = from_us(50);
  rc.open_rate_per_sec = 300'000;
  rc.max_starts = 300;
  flow_recycler rec(bed->env, *bed->topo, *bed->flows, rc, pick, size);
  rec.start(8);
  bed->env.events.run_until(from_ms(50));
  EXPECT_EQ(rec.flows_started(), 300u);
  EXPECT_EQ(rec.fcts().completed(), 300u);
  return churn_outcome{rec.fcts().records(),
                       bed->env.events.events_processed()};
}

churn_outcome run_ndp_incast(bool scrambled) {
  fabric_params fp;
  fp.proto = protocol::ndp;
  auto bed = make_fat_tree_testbed(13, 4, fp);
  if (scrambled) scramble_pool(bed->env.pool);
  fct_recorder fcts;
  std::vector<flow*> flows;
  flow_options o;
  o.bytes = 30 * 8936;
  for (std::uint32_t src = 1; src < 16; ++src) {
    flow& f = bed->flows->create(protocol::ndp, src, 0, o);
    fcts.flow_started(f.id, f.start_time, o.bytes);
    f.on_complete(
        [&fcts, &f] { fcts.flow_completed(f.id, f.completion_time()); });
    flows.push_back(&f);
  }
  run_until_complete(bed->env, flows, from_ms(50));
  EXPECT_EQ(fcts.completed(), 15u);
  return churn_outcome{fcts.records(), bed->env.events.events_processed()};
}

void expect_identical(const churn_outcome& fresh,
                      const churn_outcome& scrambled) {
  EXPECT_EQ(fresh.events, scrambled.events);
  ASSERT_EQ(fresh.records.size(), scrambled.records.size());
  for (std::size_t i = 0; i < fresh.records.size(); ++i) {
    const fct_recorder::record& a = fresh.records[i];
    const fct_recorder::record& b = scrambled.records[i];
    EXPECT_EQ(a.flow_id, b.flow_id) << "record " << i;
    EXPECT_EQ(a.start, b.start) << "record " << i;
    EXPECT_EQ(a.end, b.end) << "record " << i;
    EXPECT_EQ(a.bytes, b.bytes) << "record " << i;
    EXPECT_EQ(a.epoch, b.epoch) << "record " << i;
  }
}

TEST(flow_lifecycle, pool_order_never_reaches_results) {
  expect_identical(run_open_loop_dctcp(false), run_open_loop_dctcp(true));
  expect_identical(run_ndp_incast(false), run_ndp_incast(true));
}

}  // namespace
}  // namespace ndpsim
