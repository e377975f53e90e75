#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/packet.h"
#include "net/route.h"
#include "net/sim_env.h"
#include "test_util.h"

namespace ndpsim {
namespace {

TEST(packet_pool, alloc_returns_value_initialized) {
  packet_pool pool;
  packet* p = pool.alloc();
  p->seqno = 42;
  p->flags = 0xff;
  pool.release(p);
  packet* q = pool.alloc();
  EXPECT_EQ(q->seqno, 0u);
  EXPECT_EQ(q->flags, 0u);
  pool.release(q);
}

TEST(packet_pool, tracks_outstanding) {
  packet_pool pool;
  EXPECT_EQ(pool.outstanding(), 0u);
  packet* a = pool.alloc();
  packet* b = pool.alloc();
  EXPECT_EQ(pool.outstanding(), 2u);
  pool.release(a);
  EXPECT_EQ(pool.outstanding(), 1u);
  pool.release(b);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(packet_pool, double_free_throws) {
  packet_pool pool;
  packet* a = pool.alloc();
  pool.release(a);
  EXPECT_THROW(pool.release(a), simulation_error);
}

TEST(packet_pool, interleaved_double_free_throws) {
  // With another packet still outstanding, the aggregate counter alone would
  // let this re-release slip through; the per-packet in-pool flag catches it.
  packet_pool pool;
  packet* a = pool.alloc();
  packet* b = pool.alloc();
  pool.release(a);
  EXPECT_THROW(pool.release(a), simulation_error);
  EXPECT_EQ(pool.outstanding(), 1u);  // the failed release changed nothing
  pool.release(b);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(packet_pool, released_packet_can_be_reallocated_cleanly) {
  packet_pool pool;
  packet* a = pool.alloc();
  a->seqno = 7;
  pool.release(a);
  packet* b = pool.alloc();  // same storage, poison must be wiped
  EXPECT_EQ(b, a);
  EXPECT_EQ(b->seqno, 0u);
  EXPECT_FALSE(b->in_pool);
  pool.release(b);
}

TEST(packet_pool, release_then_alloc_reuses_the_same_slot) {
  // The LIFO contract: the slot released last is the next one handed out,
  // however many other slots are free and in whatever order they came back.
  packet_pool pool;
  std::vector<packet*> ps;
  for (int i = 0; i < 1500; ++i) ps.push_back(pool.alloc());
  for (std::size_t i = 0; i < ps.size(); i += 2) pool.release(ps[i]);
  packet* last = ps[7];
  pool.release(last);
  EXPECT_EQ(pool.alloc(), last);
  // Successive releases come back in reverse order of release.
  pool.release(ps[1]);
  pool.release(ps[1201]);
  pool.release(last);
  EXPECT_EQ(pool.alloc(), last);
  EXPECT_EQ(pool.alloc(), ps[1201]);
  EXPECT_EQ(pool.alloc(), ps[1]);
  EXPECT_EQ(pool.alloc(), ps[ps.size() - 2]);  // last of the even releases
}

TEST(packet_pool, double_free_detected_after_scrambled_release_and_realloc) {
  // Release in a scrambled order across two slabs and hand some slots out
  // again: the in-pool flag lives in the packet itself, so a stale pointer
  // is rejected whatever the free list's order, and each slot comes back
  // exactly once.
  packet_pool pool;
  std::vector<packet*> ps;
  for (int i = 0; i < 2000; ++i) ps.push_back(pool.alloc());
  for (std::size_t i = 0; i < ps.size(); i += 2) pool.release(ps[i]);
  for (std::size_t i = 1; i < ps.size(); i += 2) pool.release(ps[i]);
  ASSERT_EQ(pool.outstanding(), 0u);
  std::set<packet*> again;
  for (int i = 0; i < 300; ++i) again.insert(pool.alloc());
  EXPECT_EQ(again.size(), 300u);  // no slot handed out twice
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (again.count(ps[i]) != 0) continue;
    EXPECT_THROW(pool.release(ps[i]), simulation_error) << "slot " << i;
  }
  EXPECT_EQ(pool.outstanding(), 300u);  // the failed releases changed nothing
  for (packet* p : again) pool.release(p);
  for (packet* p : again) EXPECT_THROW(pool.release(p), simulation_error);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(packet_pool, live_packets_survive_release_and_alloc_churn) {
  // Live packets are untouched by churn around them: their slots are never
  // handed out, and their contents and double-free guard survive many
  // rounds of releases and allocations of the free slots in between.
  packet_pool pool;
  std::vector<packet*> live;
  std::vector<packet*> churn;
  for (int i = 0; i < 1500; ++i) {
    packet* p = pool.alloc();
    p->seqno = static_cast<std::uint64_t>(i);
    (i % 3 == 0 ? live : churn).push_back(p);
  }
  const std::set<packet*> live_set(live.begin(), live.end());
  for (int round = 0; round < 20; ++round) {
    // Release in a round-dependent order, then refill the same count.
    const std::size_t n = churn.size();
    for (std::size_t j = 0; j < n; ++j) {
      pool.release(churn[(j * 7 + static_cast<std::size_t>(round)) % n]);
    }
    for (std::size_t j = 0; j < n; ++j) {
      churn[j] = pool.alloc();
      ASSERT_EQ(live_set.count(churn[j]), 0u) << "live slot handed out";
      churn[j]->seqno = ~std::uint64_t{0};
    }
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i]->seqno, static_cast<std::uint64_t>(3 * i));
    EXPECT_FALSE(live[i]->in_pool);
  }
  for (packet* p : churn) pool.release(p);
  for (packet* p : live) pool.release(p);
  EXPECT_THROW(pool.release(live.front()), simulation_error);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(packet_pool, grows_beyond_one_block) {
  packet_pool pool;
  std::vector<packet*> ps;
  for (int i = 0; i < 3000; ++i) ps.push_back(pool.alloc());
  EXPECT_GE(pool.capacity(), 3000u);
  for (packet* p : ps) pool.release(p);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(packet, flag_helpers) {
  packet p;
  EXPECT_FALSE(p.has_flag(pkt_flag::syn));
  p.set_flag(pkt_flag::syn);
  p.set_flag(pkt_flag::last);
  EXPECT_TRUE(p.has_flag(pkt_flag::syn));
  EXPECT_TRUE(p.has_flag(pkt_flag::last));
  p.clear_flag(pkt_flag::syn);
  EXPECT_FALSE(p.has_flag(pkt_flag::syn));
  EXPECT_TRUE(p.has_flag(pkt_flag::last));
}

TEST(packet, header_class_classification) {
  packet p;
  p.type = packet_type::ndp_data;
  EXPECT_FALSE(p.is_header_class());
  p.set_flag(pkt_flag::trimmed);
  EXPECT_TRUE(p.is_header_class());  // trimmed data rides the header queue
  packet a;
  a.type = packet_type::ndp_ack;
  EXPECT_TRUE(a.is_header_class());
  packet t;
  t.type = packet_type::tcp_data;
  EXPECT_FALSE(t.is_header_class());
  packet k;
  k.type = packet_type::tcp_ack;
  EXPECT_TRUE(k.is_header_class());
}

TEST(packet, control_type_classification) {
  EXPECT_FALSE(is_control(packet_type::ndp_data));
  EXPECT_FALSE(is_control(packet_type::cbr_data));
  EXPECT_FALSE(is_control(packet_type::phost_data));
  EXPECT_TRUE(is_control(packet_type::ndp_pull));
  EXPECT_TRUE(is_control(packet_type::dcqcn_cnp));
  EXPECT_TRUE(is_control(packet_type::phost_token));
}

TEST(packet, send_to_next_hop_walks_route) {
  sim_env env;
  testing::recording_sink s1(env), s2(env);
  owned_route r;
  r.push_back(&s1);
  packet* p = testing::make_data(env, &r);
  send_to_next_hop(*p);
  EXPECT_EQ(s1.count(), 1u);
  EXPECT_EQ(s2.count(), 0u);
  EXPECT_EQ(env.pool.outstanding(), 0u);
}

TEST(packet, running_off_route_throws) {
  sim_env env;
  owned_route r;  // empty
  packet* p = testing::make_data(env, &r);
  EXPECT_THROW(send_to_next_hop(*p), simulation_error);
  env.pool.release(p);
}

TEST(route, reverse_registration) {
  owned_route f, r;
  f.set_reverse(&r);
  r.set_reverse(&f);
  EXPECT_EQ(f.reverse(), &r);
  EXPECT_EQ(r.reverse(), &f);
}

TEST(route, queue_hops_counts_pairs) {
  sim_env env;
  testing::recording_sink end(env);
  owned_route r;
  // [q, p, q, p, endpoint] -> 2 queue hops
  testing::recording_sink a(env), b(env), c(env), d(env);
  r.push_back(&a);
  r.push_back(&b);
  r.push_back(&c);
  r.push_back(&d);
  r.push_back(&end);
  EXPECT_EQ(r.queue_hops(), 2u);
}

}  // namespace
}  // namespace ndpsim
