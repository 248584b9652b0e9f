#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "sim/engine.hpp"
#include "mempool/mempool.hpp"
#include "util/rng.hpp"

namespace ugnirt::mempool {
namespace {

class MemPoolFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<gemini::Network>(
        engine_.scheduler(), topo::Torus3D::for_nodes(2), gemini::MachineConfig{});
    dom_ = std::make_unique<ugni::Domain>(*net_);
    ctx_ = std::make_unique<sim::Context>(engine_.scheduler(), 0);
    sim::ScopedContext guard(*ctx_);
    ASSERT_EQ(ugni::GNI_CdmAttach(dom_.get(), 0, 0, &nic_),
              ugni::GNI_RC_SUCCESS);
    pool_ = std::make_unique<MemPool>(nic_, 64 * 1024);
  }

  void TearDown() override {
    sim::ScopedContext guard(*ctx_);
    pool_.reset();
  }

  sim::Engine engine_{sim::EngineOptions{}};
  std::unique_ptr<gemini::Network> net_;
  std::unique_ptr<ugni::Domain> dom_;
  std::unique_ptr<sim::Context> ctx_;
  ugni::gni_nic_handle_t nic_ = nullptr;
  std::unique_ptr<MemPool> pool_;
};

TEST_F(MemPoolFixture, AllocReturnsUsableRegisteredMemory) {
  sim::ScopedContext guard(*ctx_);
  void* p = pool_->alloc(1000);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(MemPool::pool_of(p), pool_.get());
  EXPECT_GE(pool_->block_size(p), 1000u);
  std::memset(p, 0xAB, 1000);

  // The handle must point at a registered region covering the buffer.
  ugni::gni_mem_handle_t h = pool_->handle_of(p);
  EXPECT_NE(h.qword1, 0u);
  EXPECT_GE(nic_->registered_bytes(), 64u * 1024u);
  pool_->free(p);
}

TEST_F(MemPoolFixture, FreeThenAllocReusesBlock) {
  sim::ScopedContext guard(*ctx_);
  void* a = pool_->alloc(512);
  pool_->free(a);
  void* b = pool_->alloc(512);
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool_->stats().freelist_hits, 1u);
  pool_->free(b);
}

TEST_F(MemPoolFixture, SizeClassesAreIsolated) {
  sim::ScopedContext guard(*ctx_);
  void* small = pool_->alloc(64);
  void* big = pool_->alloc(8192);
  pool_->free(small);
  // A big request must not be satisfied by the freed small block.
  void* big2 = pool_->alloc(8192);
  EXPECT_NE(big2, small);
  pool_->free(big);
  pool_->free(big2);
}

TEST_F(MemPoolFixture, RecycledAllocIsCheaperThanExpansion) {
  sim::ScopedContext guard(*ctx_);
  // First large alloc may expand the pool (malloc+register = expensive).
  SimTime t0 = ctx_->now();
  void* a = pool_->alloc(256 * 1024);
  SimTime first_cost = ctx_->now() - t0;
  pool_->free(a);
  t0 = ctx_->now();
  void* b = pool_->alloc(256 * 1024);
  SimTime second_cost = ctx_->now() - t0;
  // Recycle path charges only mempool_alloc_ns.
  EXPECT_EQ(second_cost, net_->config().mempool_alloc_ns);
  EXPECT_GT(first_cost, 20 * second_cost);
  pool_->free(b);
}

TEST_F(MemPoolFixture, ExpandsWhenExhausted) {
  sim::ScopedContext guard(*ctx_);
  std::vector<void*> blocks;
  std::uint64_t initial_expansions = pool_->stats().expansions;
  for (int i = 0; i < 64; ++i) blocks.push_back(pool_->alloc(4096));
  EXPECT_GT(pool_->stats().expansions, initial_expansions);
  for (void* p : blocks) {
    EXPECT_EQ(MemPool::pool_of(p), pool_.get());
    pool_->free(p);
  }
  EXPECT_EQ(pool_->stats().outstanding, 0u);
}

TEST_F(MemPoolFixture, BlocksDoNotOverlap) {
  sim::ScopedContext guard(*ctx_);
  std::map<std::uintptr_t, std::size_t> spans;
  std::vector<void*> blocks;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    std::size_t size = 64u << rng.next_below(8);  // 64B .. 8KB
    void* p = pool_->alloc(size);
    std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(p);
    std::size_t span = pool_->block_size(p);
    // Check against all existing blocks.
    for (const auto& [a, s] : spans) {
      EXPECT_TRUE(addr + span <= a || a + s <= addr)
          << "block overlap at iteration " << i;
    }
    spans[addr] = span;
    blocks.push_back(p);
  }
  for (void* p : blocks) pool_->free(p);
}

TEST_F(MemPoolFixture, StressRandomAllocFreeWithPatternVerify) {
  sim::ScopedContext guard(*ctx_);
  struct Live {
    void* p;
    std::size_t size;
    std::uint8_t pattern;
  };
  std::vector<Live> live;
  Rng rng(77);
  for (int iter = 0; iter < 3000; ++iter) {
    if (live.empty() || rng.next_below(100) < 60) {
      std::size_t size = 1 + rng.next_below(32 * 1024);
      auto pattern = static_cast<std::uint8_t>(rng.next_below(256));
      void* p = pool_->alloc(size);
      std::memset(p, pattern, size);
      live.push_back({p, size, pattern});
    } else {
      std::size_t idx = rng.next_below(static_cast<std::uint32_t>(live.size()));
      Live& l = live[idx];
      // Verify the pattern survived neighboring alloc/free traffic.
      auto* bytes = static_cast<std::uint8_t*>(l.p);
      bool intact = true;
      for (std::size_t i = 0; i < l.size; ++i) {
        if (bytes[i] != l.pattern) {
          intact = false;
          break;
        }
      }
      EXPECT_TRUE(intact) << "corruption detected at iteration " << iter;
      pool_->free(l.p);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (const auto& l : live) pool_->free(l.p);
  EXPECT_EQ(pool_->stats().outstanding, 0u);
  EXPECT_EQ(pool_->stats().allocs, pool_->stats().frees);
}

TEST_F(MemPoolFixture, BinLookupIsConstantTimePerAlloc) {
  sim::ScopedContext guard(*ctx_);
  // The size class resolves via bit_ceil + countr_zero — exactly one O(1)
  // lookup per alloc, never a search.  On a success-only workload the
  // counter must track allocs one-for-one (a failed slab expansion rolls
  // back the alloc count but not the lookup, so only successful-alloc
  // workloads can assert equality).
  std::vector<void*> held;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t size : {1u, 64u, 65u, 4096u, 32u * 1024u}) {
      held.push_back(pool_->alloc(size));
    }
    for (void* p : held) pool_->free(p);
    held.clear();
  }
  const auto& st = pool_->stats();
  EXPECT_EQ(st.bin_lookups, st.allocs);
  EXPECT_EQ(st.bin_lookups, 20u);
}

TEST_F(MemPoolFixture, OversizedAllocationThrows) {
  sim::ScopedContext guard(*ctx_);
  EXPECT_THROW(pool_->alloc(MemPool::kMaxBlock * 2), std::length_error);
}

TEST_F(MemPoolFixture, PoolOfNamesTheOwningPoolOrTheHeap) {
  sim::ScopedContext guard(*ctx_);
  MemPool other(nic_, 4096);
  void* mine = pool_->alloc(128);
  void* theirs = other.alloc(128);
  void* heap = MemPool::alloc_heap(128);
  EXPECT_EQ(MemPool::pool_of(mine), pool_.get());
  EXPECT_EQ(MemPool::pool_of(theirs), &other);
  EXPECT_EQ(MemPool::pool_of(heap), nullptr);
  std::memset(heap, 0xCD, 128);  // the payload is all the caller's

  // A block recycled through the freelist is stamped again on reuse.
  pool_->free(mine);
  void* again = pool_->alloc(128);
  EXPECT_EQ(again, mine);
  EXPECT_EQ(MemPool::pool_of(again), pool_.get());
  // The heap buffer is in neither pool's stats.
  EXPECT_EQ(other.stats().outstanding, 1u);
  EXPECT_EQ(pool_->stats().outstanding, 1u);

  MemPool::free_heap(heap);
  other.free(theirs);
  pool_->free(again);
  // A freed block is neither live nor a heap buffer: pool_of refuses it.
  EXPECT_DEATH(MemPool::pool_of(again), "freed or foreign");
}

}  // namespace
}  // namespace ugnirt::mempool
