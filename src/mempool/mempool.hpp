// Pre-registered memory pool (paper §IV-B).
//
// The CHARM++ runtime owns message allocation, so the uGNI machine layer can
// pre-allocate and pre-register large slabs and serve every message buffer
// from them: Tmalloc and Tregister disappear from the large-message send
// path (paper Equation 1 -> Tcost = 2*Tmempool + Trdma + 2*Tsmsg).
//
// Design: power-of-two size classes with per-class free lists, carved out of
// registered slabs.  When the pool overflows it expands dynamically (paper:
// "In the case when the memory pool overflows, it can be dynamically
// expanded") — the expansion pays the full malloc+registration cost once,
// after which buffers recycle for free.
//
// The free lists are INTRUSIVE: the link lives in the spare half of the
// 16-byte block header, and the list heads are a fixed inline array in the
// pool object.  While a block is live the same word names the pool that
// owns it, so pool_of() resolves any buffer's owner from its header in
// O(1); heap buffers made by alloc_heap() carry the same header with no
// pool.  At full-machine scale (150k+ pools, one per PE) every
// alloc/free walks cold memory, so the hot path is sized in cache lines:
// intrusive links touch only the pool object and the block header — both
// lines the operation must touch anyway — where the old vector-of-vectors
// design paid two further dependent loads (outer array, inner buffer) per
// operation, plus their reallocation churn.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ugni/ugni.hpp"

namespace ugnirt::mempool {

struct MemPoolStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t expansions = 0;     // new slabs registered
  std::uint64_t slab_bytes = 0;     // total registered pool memory
  std::uint64_t outstanding = 0;    // live allocations
  std::uint64_t freelist_hits = 0;  // allocs served without carving
  std::uint64_t bin_lookups = 0;    // O(1) size-class resolutions (== allocs)
};

class MemPool {
 public:
  /// Creates the pool with one initial slab of `initial_bytes`, registered
  /// on `nic`.  Charges the initial malloc+registration to the current PE.
  MemPool(ugni::gni_nic_handle_t nic, std::uint64_t initial_bytes);
  ~MemPool();

  MemPool(const MemPool&) = delete;
  MemPool& operator=(const MemPool&) = delete;

  /// Allocate a buffer of at least `bytes`.  O(1) except on expansion.
  /// Charges mempool_alloc_ns (plus expansion costs when a new slab is
  /// needed).  Returned memory is always inside a registered region.
  /// Returns nullptr when the pool must expand but slab registration fails
  /// (GNI_RC_ERROR_RESOURCE) — callers fall back to a heap-registered
  /// buffer and retry registration under their own backoff policy.
  void* alloc(std::size_t bytes);

  /// Return a buffer to its size-class free list.  Charges mempool_free_ns.
  void free(void* p);

  /// Registered-memory handle covering `p` (for RDMA descriptors).
  ugni::gni_mem_handle_t handle_of(const void* p) const;

  /// The pool whose live block `p` is, or nullptr for a live alloc_heap()
  /// buffer.  `p` must be one of the two.
  static MemPool* pool_of(const void* p) {
    const Header* h = header_of(p);
    assert((h->magic == kMagicLive || h->magic == kMagicHeap) &&
           "MemPool::pool_of of a freed or foreign pointer");
    return static_cast<MemPool*>(h->link);
  }

  /// A heap buffer of `bytes` behind the same 16-byte header, so pool_of()
  /// can tell it from a pool block.  Charges nothing: the caller models
  /// the malloc.
  static void* alloc_heap(std::size_t bytes);
  /// Release an alloc_heap() buffer.  Charges nothing.
  static void free_heap(void* p);

  /// Usable size class of the allocation at `p`.
  std::size_t block_size(const void* p) const;

  /// Usable bytes of the block alloc(bytes) would return — the power-of-
  /// two size class covering `bytes`.  Lease-sized buffers (aggregation
  /// batches) round their capacity up to this so no registered pool bytes
  /// are stranded.
  static std::size_t usable_size(std::size_t bytes);

  const MemPoolStats& stats() const { return stats_; }
  ugni::gni_nic_handle_t nic() const { return nic_; }

  static constexpr std::size_t kMinBlock = 64;
  static constexpr std::size_t kMaxBlock = 64ull << 20;  // 64 MiB

 private:
  struct Slab {
    std::unique_ptr<std::uint8_t[]> memory;
    std::size_t size = 0;
    std::size_t used = 0;  // bump-carve offset
    ugni::gni_mem_handle_t handle{};
  };

  // Block header stamped just before every returned pointer.  The spare
  // 8 bytes are the intrusive freelist link while the block is free and
  // the owning pool (nullptr for a heap buffer) while it is live; payload
  // bytes are untouched either way.
  struct Header {
    std::uint32_t magic = 0;
    std::uint16_t bin = 0;
    std::uint16_t slab = 0;
    void* link = nullptr;  // free: next free block; live: owning MemPool
  };
  static constexpr std::size_t kHeaderSize = 16;  // keep payload aligned
  static_assert(sizeof(Header) == kHeaderSize,
                "freelist link must fit the spare header bytes");
  static constexpr std::uint32_t kMagicLive = 0x9D00DA11u;
  static constexpr std::uint32_t kMagicFree = 0xFEE1DEADu;
  static constexpr std::uint32_t kMagicHeap = 0x4EA9B10Cu;

  static std::size_t bin_of(std::size_t bytes);
  static std::size_t bin_block_size(std::size_t bin);

  /// Carve a block of `block` bytes for `bin`, expanding if needed.
  /// Returns nullptr when expansion fails.
  void* carve(std::size_t bin, std::size_t block);
  /// False when the slab's registration was refused by the NIC.
  bool add_slab(std::size_t min_bytes);

  static Header* header_of(void* p) {
    return reinterpret_cast<Header*>(static_cast<std::uint8_t*>(p) -
                                     kHeaderSize);
  }
  static const Header* header_of(const void* p) {
    return reinterpret_cast<const Header*>(
        static_cast<const std::uint8_t*>(p) - kHeaderSize);
  }

  /// One size class per power of two in [kMinBlock, kMaxBlock].
  static constexpr std::size_t kBins =
      std::countr_zero(kMaxBlock) - std::countr_zero(kMinBlock) + 1;

  ugni::gni_nic_handle_t nic_;
  std::vector<Slab> slabs_;
  std::array<void*, kBins> free_head_{};  // intrusive per-class freelists
  MemPoolStats stats_;
};

}  // namespace ugnirt::mempool
