// Property-style tests of the uGNI emulation: randomized transaction
// streams across several NICs must preserve data, ordering guarantees, and
// accounting invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "ugni/ugni.hpp"
#include "util/rng.hpp"

namespace ugnirt::ugni {
namespace {

class UgniPropertyFixture : public ::testing::Test {
 protected:
  static constexpr int kNics = 4;

  void SetUp() override {
    net_ = std::make_unique<gemini::Network>(
        engine_.scheduler(), topo::Torus3D::for_nodes(8), gemini::MachineConfig{});
    dom_ = std::make_unique<Domain>(*net_);
    for (int i = 0; i < kNics; ++i) {
      ctx_.push_back(std::make_unique<sim::Context>(engine_.scheduler(), i));
      sim::ScopedContext g(*ctx_.back());
      ASSERT_EQ(GNI_CdmAttach(dom_.get(), i, i % 4, &nic_[i]),
                GNI_RC_SUCCESS);
      ASSERT_EQ(GNI_CqCreate(nic_[i], 1 << 14, &rx_[i]), GNI_RC_SUCCESS);
      ASSERT_EQ(GNI_CqCreate(nic_[i], 1 << 14, &tx_[i]), GNI_RC_SUCCESS);
      nic_[i]->set_smsg_rx_cq(rx_[i]);
    }
    for (int a = 0; a < kNics; ++a) {
      for (int b = 0; b < kNics; ++b) {
        if (a == b) continue;
        sim::ScopedContext g(*ctx_[static_cast<std::size_t>(a)]);
        ASSERT_EQ(GNI_EpCreate(nic_[a], tx_[a], &ep_[a][b]), GNI_RC_SUCCESS);
        ASSERT_EQ(GNI_EpBind(ep_[a][b], b), GNI_RC_SUCCESS);
        gni_smsg_attr_t attr;
        attr.mbox_maxcredit = 64;
        ASSERT_EQ(GNI_SmsgInit(ep_[a][b], attr, attr), GNI_RC_SUCCESS);
      }
    }
  }

  sim::Context& ctx(int i) { return *ctx_[static_cast<std::size_t>(i)]; }

  sim::Engine engine_{sim::EngineOptions{}};
  std::unique_ptr<gemini::Network> net_;
  std::unique_ptr<Domain> dom_;
  std::vector<std::unique_ptr<sim::Context>> ctx_;
  gni_nic_handle_t nic_[kNics] = {};
  gni_cq_handle_t rx_[kNics] = {}, tx_[kNics] = {};
  gni_ep_handle_t ep_[kNics][kNics] = {};
};

TEST_F(UgniPropertyFixture, RandomSmsgStreamsArriveIntactAndFifoPerPair) {
  Rng rng(4242);
  std::map<std::pair<int, int>, std::vector<std::uint32_t>> sent;
  // Senders fire random tagged sequence numbers at random peers.
  for (int round = 0; round < 200; ++round) {
    int from = static_cast<int>(rng.next_below(kNics));
    int to = static_cast<int>(rng.next_below(kNics));
    if (from == to) continue;
    sim::ScopedContext g(ctx(from));
    std::uint32_t payload[2] = {static_cast<std::uint32_t>(round),
                                rng.next_u64() ? 0xABCD0000u + static_cast<std::uint32_t>(round) : 0u};
    gni_return_t rc = GNI_SmsgSendWTag(ep_[from][to], payload,
                                       sizeof(payload), nullptr, 0, 0, 3);
    if (rc == GNI_RC_NOT_DONE) continue;  // out of credits: skip
    ASSERT_EQ(rc, GNI_RC_SUCCESS);
    sent[{from, to}].push_back(payload[0]);
  }
  engine_.run();
  // Drain every receiver and check per-pair FIFO of sequence numbers.
  std::map<std::pair<int, int>, std::vector<std::uint32_t>> got;
  for (int to = 0; to < kNics; ++to) {
    sim::ScopedContext g(ctx(to));
    ctx(to).wait_until(engine_.now() + 1'000'000'000);
    for (;;) {
      gni_cq_entry_t ev;
      if (GNI_CqGetEvent(rx_[to], &ev) != GNI_RC_SUCCESS) break;
      ASSERT_EQ(ev.type, CqEventType::kSmsg);
      void* data = nullptr;
      std::uint8_t tag = 0;
      ASSERT_EQ(GNI_SmsgGetNextWTag(ep_[to][ev.source_inst], &data, &tag),
                GNI_RC_SUCCESS);
      EXPECT_EQ(tag, 3);
      std::uint32_t seq;
      std::memcpy(&seq, data, sizeof(seq));
      got[{ev.source_inst, to}].push_back(seq);
      ASSERT_EQ(GNI_SmsgRelease(ep_[to][ev.source_inst]), GNI_RC_SUCCESS);
    }
  }
  EXPECT_EQ(got, sent);
}

TEST_F(UgniPropertyFixture, RandomRdmaMatrixMovesExactBytes) {
  Rng rng(99);
  constexpr std::size_t kRegion = 1 << 16;
  std::vector<std::vector<std::uint8_t>> mem(kNics);
  gni_mem_handle_t hndl[kNics];
  for (int i = 0; i < kNics; ++i) {
    mem[static_cast<std::size_t>(i)].resize(kRegion);
    for (std::size_t b = 0; b < kRegion; ++b) {
      mem[static_cast<std::size_t>(i)][b] =
          static_cast<std::uint8_t>(rng.next_below(256));
    }
    sim::ScopedContext g(ctx(i));
    ASSERT_EQ(
        GNI_MemRegister(nic_[i],
                        reinterpret_cast<std::uint64_t>(
                            mem[static_cast<std::size_t>(i)].data()),
                        kRegion, rx_[i], 0, &hndl[i]),
        GNI_RC_SUCCESS);
  }
  // Shadow model of every region.
  auto shadow = mem;

  for (int round = 0; round < 120; ++round) {
    int from = static_cast<int>(rng.next_below(kNics));
    int to = static_cast<int>(rng.next_below(kNics));
    if (from == to) continue;
    bool is_get = rng.next_below(2) == 0;
    bool is_bte = rng.next_below(2) == 0;
    std::uint32_t len = 8u << rng.next_below(10);  // 8 B .. 4 KiB
    std::uint32_t loff = rng.next_below(kRegion - len);
    std::uint32_t roff = rng.next_below(kRegion - len);

    gni_post_descriptor_t d;
    d.type = is_get ? (is_bte ? GNI_POST_RDMA_GET : GNI_POST_FMA_GET)
                    : (is_bte ? GNI_POST_RDMA_PUT : GNI_POST_FMA_PUT);
    d.local_addr = reinterpret_cast<std::uint64_t>(
        mem[static_cast<std::size_t>(from)].data() + loff);
    d.local_mem_hndl = hndl[from];
    d.remote_addr = reinterpret_cast<std::uint64_t>(
        mem[static_cast<std::size_t>(to)].data() + roff);
    d.remote_mem_hndl = hndl[to];
    d.length = len;
    sim::ScopedContext g(ctx(from));
    ASSERT_EQ(is_bte ? GNI_PostRdma(ep_[from][to], &d)
                     : GNI_PostFma(ep_[from][to], &d),
              GNI_RC_SUCCESS);
    // Mirror in the shadow model.
    auto& lmem = shadow[static_cast<std::size_t>(from)];
    auto& rmem = shadow[static_cast<std::size_t>(to)];
    if (is_get) {
      std::memcpy(lmem.data() + loff, rmem.data() + roff, len);
    } else {
      std::memcpy(rmem.data() + roff, lmem.data() + loff, len);
    }
    // Drain local completion.
    gni_cq_entry_t ev;
    ASSERT_EQ(GNI_CqWaitEvent(tx_[from], &ev), GNI_RC_SUCCESS);
    gni_post_descriptor_t* done = nullptr;
    ASSERT_EQ(GNI_GetCompleted(tx_[from], ev, &done), GNI_RC_SUCCESS);
    ASSERT_EQ(done, &d);
  }
  for (int i = 0; i < kNics; ++i) {
    EXPECT_EQ(mem[static_cast<std::size_t>(i)],
              shadow[static_cast<std::size_t>(i)])
        << "region " << i << " diverged";
  }
}

TEST_F(UgniPropertyFixture, RegistrationAccountingNeverLeaks) {
  Rng rng(7);
  std::vector<std::pair<gni_mem_handle_t, std::size_t>> live;
  std::vector<std::vector<std::uint8_t>> buffers;
  buffers.reserve(200);
  sim::ScopedContext g(ctx(0));
  std::uint64_t expected_bytes = 0;
  for (int round = 0; round < 200; ++round) {
    if (live.empty() || rng.next_below(2) == 0) {
      std::size_t len = 256u << rng.next_below(8);
      buffers.emplace_back(len);
      gni_mem_handle_t h;
      ASSERT_EQ(GNI_MemRegister(
                    nic_[0],
                    reinterpret_cast<std::uint64_t>(buffers.back().data()),
                    len, nullptr, 0, &h),
                GNI_RC_SUCCESS);
      live.emplace_back(h, len);
      expected_bytes += len;
    } else {
      std::size_t idx = rng.next_below(static_cast<std::uint32_t>(live.size()));
      ASSERT_EQ(GNI_MemDeregister(nic_[0], &live[idx].first),
                GNI_RC_SUCCESS);
      expected_bytes -= live[idx].second;
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(nic_[0]->registered_bytes(), expected_bytes);
    ASSERT_EQ(nic_[0]->active_regions(), live.size());
  }
}

TEST_F(UgniPropertyFixture, CqWaitEventReturnsNotDoneOnSilence) {
  sim::ScopedContext g(ctx(0));
  gni_cq_entry_t ev;
  EXPECT_EQ(GNI_CqWaitEvent(rx_[0], &ev), GNI_RC_NOT_DONE);
}

TEST_F(UgniPropertyFixture, ApiParameterValidation) {
  sim::ScopedContext g(ctx(0));
  gni_cq_entry_t ev;
  EXPECT_EQ(GNI_CqGetEvent(nullptr, &ev), GNI_RC_INVALID_PARAM);
  EXPECT_EQ(GNI_CqGetEvent(rx_[0], nullptr), GNI_RC_INVALID_PARAM);
  gni_mem_handle_t h;
  EXPECT_EQ(GNI_MemRegister(nic_[0], 0, 100, nullptr, 0, &h),
            GNI_RC_INVALID_PARAM);
  std::uint8_t buf[8];
  EXPECT_EQ(GNI_MemRegister(nic_[0], reinterpret_cast<std::uint64_t>(buf), 0,
                            nullptr, 0, &h),
            GNI_RC_INVALID_PARAM);
  EXPECT_EQ(GNI_EpBind(ep_[0][1], 2), GNI_RC_INVALID_STATE);  // re-bind
  gni_smsg_attr_t attr;
  EXPECT_EQ(GNI_SmsgInit(ep_[0][1], attr, attr), GNI_RC_INVALID_STATE);
  EXPECT_EQ(gni_err_str(GNI_RC_NOT_DONE), std::string("GNI_RC_NOT_DONE"));
  EXPECT_EQ(gni_err_str(GNI_RC_PERMISSION_ERROR),
            std::string("GNI_RC_PERMISSION_ERROR"));
}

TEST_F(UgniPropertyFixture, DomainAggregatesMailboxMemory) {
  std::uint64_t total = dom_->total_mailbox_bytes();
  // 4 NICs x 3 peers each = 12 mailboxes committed at SetUp.
  EXPECT_GT(total, 0u);
  std::uint64_t per = nic_[0]->mailbox_bytes();
  EXPECT_EQ(total, per * kNics);
}

// Seeded random sequences of attach, create+bind, bind of a second
// endpoint to an already-bound peer, destroy, re-bind of a destroyed
// handle, and bind before the remote NIC attaches.  After every step each
// endpoint is checked against a reference model of the peer tables: a
// stack per (nic, peer) of the endpoints bound there, newest on top.
// SMSG send must succeed exactly when the model has a mirror endpoint
// (the top of the reverse stack), the message must land in that mirror,
// and the credit its release returns must reach the sender's current
// endpoint.
TEST(UgniPeerLinks, RandomBindDestroySequencesMatchReferenceModel) {
  constexpr int kInsts = 6;
  for (std::uint64_t seed : {1ull, 7919ull, 4242ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Engine engine{sim::EngineOptions{}};
    gemini::Network net(engine.scheduler(), topo::Torus3D::for_nodes(8),
                        gemini::MachineConfig{});
    Domain dom(net);
    std::vector<std::unique_ptr<sim::Context>> ctxs;
    for (int i = 0; i < kInsts; ++i) {
      ctxs.push_back(std::make_unique<sim::Context>(engine.scheduler(), i));
    }
    gni_nic_handle_t nics[kInsts] = {};
    gni_cq_handle_t rx[kInsts] = {}, tx[kInsts] = {};
    gni_smsg_attr_t attr;
    attr.mbox_maxcredit = 1;

    struct Rec {
      gni_ep_handle_t ep;
      int nic;
      int peer = -1;  // model: bound peer, -1 when destroyed
    };
    std::vector<Rec> eps;
    std::map<std::pair<int, int>, std::vector<gni_ep_handle_t>> stacks;
    std::map<gni_ep_handle_t, int> credits;
    auto top = [&](int nic, int peer) -> gni_ep_handle_t {
      auto it = stacks.find({nic, peer});
      return it == stacks.end() || it->second.empty() ? nullptr
                                                      : it->second.back();
    };
    auto attach = [&](int i) {
      sim::ScopedContext g(*ctxs[static_cast<std::size_t>(i)]);
      ASSERT_EQ(GNI_CdmAttach(&dom, i, i % 8, &nics[i]), GNI_RC_SUCCESS);
      ASSERT_EQ(GNI_CqCreate(nics[i], 1024, &rx[i]), GNI_RC_SUCCESS);
      ASSERT_EQ(GNI_CqCreate(nics[i], 1024, &tx[i]), GNI_RC_SUCCESS);
      nics[i]->set_smsg_rx_cq(rx[i]);
    };
    auto bind = [&](Rec& r, int peer) {
      ASSERT_EQ(GNI_EpBind(r.ep, peer), GNI_RC_SUCCESS);
      ASSERT_EQ(GNI_SmsgInit(r.ep, attr, attr), GNI_RC_SUCCESS);
      r.peer = peer;
      stacks[{r.nic, peer}].push_back(r.ep);
      credits[r.ep] = 1;
    };
    auto create = [&](int nic, int peer) {
      Rec r{nullptr, nic};
      ASSERT_EQ(GNI_EpCreate(nics[nic], tx[nic], &r.ep), GNI_RC_SUCCESS);
      bind(r, peer);
      eps.push_back(r);
    };
    auto pick = [&](Rng& rng, bool live) -> Rec* {
      std::vector<Rec*> c;
      for (Rec& r : eps) {
        if ((r.peer >= 0) == live) c.push_back(&r);
      }
      return c.empty() ? nullptr : c[rng.next_below(
                                       static_cast<std::uint32_t>(c.size()))];
    };

    Rng rng(seed);
    attach(0);
    attach(1);
    std::uint32_t payload = 0;
    for (int step = 0; step < 150; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      std::vector<int> attached, unattached;
      for (int i = 0; i < kInsts; ++i) {
        (nics[i] ? attached : unattached).push_back(i);
      }
      const auto any_inst = [&] {
        return static_cast<int>(rng.next_below(kInsts));
      };
      const std::uint32_t op = rng.next_below(9);
      if (op == 0 && !unattached.empty()) {
        attach(unattached[rng.next_below(
            static_cast<std::uint32_t>(unattached.size()))]);
      } else if (op <= 3) {
        // May target an unattached instance (bind before remote attach)
        // or this NIC itself.
        const int a = attached[rng.next_below(
            static_cast<std::uint32_t>(attached.size()))];
        create(a, any_inst());
      } else if (op <= 5) {
        if (Rec* r = pick(rng, true)) {
          const int a = r->nic, b = r->peer;
          create(a, b);  // a second endpoint on an already-bound pair
        }
      } else if (op <= 7) {
        if (Rec* r = pick(rng, true)) {
          ASSERT_EQ(GNI_EpDestroy(r->ep), GNI_RC_SUCCESS);
          auto& st = stacks[{r->nic, r->peer}];
          st.erase(std::find(st.begin(), st.end(), r->ep));
          r->peer = -1;
        }
      } else if (Rec* r = pick(rng, false)) {
        bind(*r, any_inst());  // re-bind a destroyed handle
      }
      if (HasFatalFailure()) return;

      // Peer tables and links match the model.
      for (int a : attached) {
        for (int b = 0; b < kInsts; ++b) {
          ASSERT_EQ(nics[a]->ep_for_peer(b), top(a, b));
        }
      }
      for (const Rec& r : eps) {
        ASSERT_EQ(r.ep->bound(), r.peer >= 0);
        ASSERT_EQ(r.ep->peer_ep(), r.peer >= 0 ? top(r.peer, r.nic) : nullptr);
      }

      // Every endpoint sends once; a successful send is received by the
      // mirror and released before the next endpoint goes.
      for (const Rec& r : eps) {
        gni_return_t want = GNI_RC_SUCCESS;
        gni_ep_handle_t mirror = r.peer >= 0 ? top(r.peer, r.nic) : nullptr;
        if (r.peer < 0) {
          want = GNI_RC_INVALID_PARAM;
        } else if (credits[r.ep] == 0) {
          want = GNI_RC_NOT_DONE;
        } else if (!nics[r.peer]) {
          want = GNI_RC_INVALID_PARAM;
        } else if (!mirror) {
          want = GNI_RC_INVALID_STATE;
        }
        ++payload;
        {
          sim::ScopedContext g(*ctxs[static_cast<std::size_t>(r.nic)]);
          ASSERT_EQ(GNI_SmsgSendWTag(r.ep, &payload, sizeof(payload), nullptr,
                                     0, 0, 5),
                    want)
              << "ep on " << r.nic << " bound to " << r.peer;
        }
        if (want != GNI_RC_SUCCESS) continue;
        --credits[r.ep];
        engine.run();
        sim::ScopedContext g(*ctxs[static_cast<std::size_t>(r.peer)]);
        gni_cq_entry_t ev;
        ASSERT_EQ(GNI_CqWaitEvent(rx[r.peer], &ev), GNI_RC_SUCCESS);
        ASSERT_EQ(ev.source_inst, r.nic);
        void* data = nullptr;
        std::uint8_t tag = 0;
        ASSERT_EQ(GNI_SmsgGetNextWTag(mirror, &data, &tag), GNI_RC_SUCCESS);
        std::uint32_t got = 0;
        std::memcpy(&got, data, sizeof(got));
        ASSERT_EQ(got, payload);
        ASSERT_EQ(tag, 5);
        ASSERT_EQ(GNI_SmsgRelease(mirror), GNI_RC_SUCCESS);
        ++credits[top(r.nic, r.peer)];
        engine.run();
      }
    }
  }
}

}  // namespace
}  // namespace ugnirt::ugni
