#include "mempool/mempool.hpp"

#include <bit>
#include <cassert>
#include <new>
#include <stdexcept>

#include "trace/events.hpp"
#include "util/log.hpp"

namespace ugnirt::mempool {

namespace {

sim::Context& ctx() {
  sim::Context* c = sim::current();
  assert(c && "MemPool calls must run inside a simulated PE context");
  return *c;
}

}  // namespace

MemPool::MemPool(ugni::gni_nic_handle_t nic, std::uint64_t initial_bytes)
    : nic_(nic) {
  add_slab(initial_bytes);
}

MemPool::~MemPool() {
  // Slabs deregister with the NIC; charge nothing (teardown is outside the
  // measured protocol paths).
  for (auto& slab : slabs_) {
    if (sim::current()) {
      ugni::GNI_MemDeregister(nic_, &slab.handle);
    }
  }
}

std::size_t MemPool::bin_of(std::size_t bytes) {
  std::size_t need = bytes < kMinBlock ? kMinBlock : std::bit_ceil(bytes);
  if (need > kMaxBlock) {
    throw std::length_error("MemPool: allocation exceeds max block size");
  }
  return static_cast<std::size_t>(std::countr_zero(need)) -
         static_cast<std::size_t>(std::countr_zero(kMinBlock));
}

std::size_t MemPool::bin_block_size(std::size_t bin) {
  return kMinBlock << bin;
}

std::size_t MemPool::usable_size(std::size_t bytes) {
  return bin_block_size(bin_of(bytes));
}

bool MemPool::add_slab(std::size_t min_bytes) {
  // Grow geometrically, and always leave room for several blocks of the
  // triggering size so steady-state traffic of one size class stops
  // expanding after one or two slabs (each expansion pays registration).
  std::size_t size = slabs_.empty() ? min_bytes : slabs_.back().size * 2;
  if (size < 4 * min_bytes) size = std::bit_ceil(4 * min_bytes);
  if (size < kMinBlock + kHeaderSize) size = 4096;

  const auto& mc = nic_->domain()->config();
  sim::Context& c = ctx();
  c.charge(mc.malloc_cost(size));

  Slab slab;
  // Default-initialized (new[] without value-init): make_unique would
  // memset the whole slab, and at full-machine scale (150k pools x
  // geometric slabs, tens of GB) that zeroing dominated host CPU.  Block
  // headers are written on carve; payload bytes are caller-owned.
  slab.memory.reset(new std::uint8_t[size]);
  slab.size = size;
  ugni::gni_return_t rc = ugni::GNI_MemRegister(
      nic_, reinterpret_cast<std::uint64_t>(slab.memory.get()), size,
      /*dst_cq=*/nullptr, 0, &slab.handle);
  if (rc != ugni::GNI_RC_SUCCESS) {
    // Registration refused (MDD/TLB pressure, or an injected fault): the
    // allocation that triggered the expansion falls back to the caller's
    // heap path; the pool itself stays usable with its existing slabs.
    UGNIRT_WARN("mempool slab registration failed (rc=" << rc << ", "
                                                        << size << " B)");
    return false;
  }
  slabs_.push_back(std::move(slab));
  stats_.slab_bytes += size;
  ++stats_.expansions;
  if (trace::enabled()) {
    trace::emit(trace::Ev::kPoolExpand, ctx().now(), 0, /*peer=*/-1,
                static_cast<std::uint32_t>(size));
  }
  UGNIRT_DEBUG("mempool slab +" << size << " B (total "
                                << stats_.slab_bytes << " B, "
                                << stats_.expansions << " expansions)");
  return true;
}

void* MemPool::carve(std::size_t bin, std::size_t block) {
  const std::size_t need = block + kHeaderSize;
  // Find a slab with room (newest first: older slabs are likely full).
  for (std::size_t i = slabs_.size(); i-- > 0;) {
    Slab& slab = slabs_[i];
    if (slab.size - slab.used >= need) {
      std::uint8_t* base = slab.memory.get() + slab.used;
      slab.used += need;
      Header* h = reinterpret_cast<Header*>(base);
      h->bin = static_cast<std::uint16_t>(bin);
      h->slab = static_cast<std::uint16_t>(i);
      h->magic = kMagicLive;
      h->link = this;
      return base + kHeaderSize;
    }
  }
  if (!add_slab(need)) return nullptr;
  return carve(bin, block);
}

void* MemPool::alloc(std::size_t bytes) {
  const auto& mc = nic_->domain()->config();
  ctx().charge(mc.mempool_alloc_ns);
  std::size_t bin = bin_of(bytes);
  // The size class resolves in O(1) (bit_ceil + countr_zero, no search);
  // the counter lets tests and the registry assert the fast path held
  // (bin_lookups == allocs: never more than one resolution per alloc).
  ++stats_.bin_lookups;
  ++stats_.allocs;
  ++stats_.outstanding;
  if (void* p = free_head_[bin]) {
    Header* h = header_of(p);
    free_head_[bin] = h->link;
    h->link = this;
    h->magic = kMagicLive;
    ++stats_.freelist_hits;
    if (trace::enabled()) {
      trace::emit(trace::Ev::kPoolHit, ctx().now(), 0, /*peer=*/-1,
                  static_cast<std::uint32_t>(bytes));
    }
    return p;
  }
  if (trace::enabled()) {
    trace::emit(trace::Ev::kPoolMiss, ctx().now(), 0, /*peer=*/-1,
                static_cast<std::uint32_t>(bytes));
  }
  void* p = carve(bin, bin_block_size(bin));
  if (!p) {
    --stats_.allocs;
    --stats_.outstanding;
  }
  return p;
}

void MemPool::free(void* p) {
  const auto& mc = nic_->domain()->config();
  ctx().charge(mc.mempool_free_ns);
  Header* h = header_of(p);
  assert(h->magic == kMagicLive && "MemPool::free of invalid/double pointer");
  assert(h->link == this && "MemPool::free of another pool's block");
  h->magic = kMagicFree;
  h->link = free_head_[h->bin];
  free_head_[h->bin] = p;
  ++stats_.frees;
  --stats_.outstanding;
}

ugni::gni_mem_handle_t MemPool::handle_of(const void* p) const {
  const Header* h = header_of(p);
  assert(h->magic == kMagicLive);
  return slabs_[h->slab].handle;
}

void* MemPool::alloc_heap(std::size_t bytes) {
  auto* base = static_cast<std::uint8_t*>(
      ::operator new[](kHeaderSize + bytes, std::align_val_t{16}));
  new (base) Header{kMagicHeap, 0, 0, nullptr};
  return base + kHeaderSize;
}

void MemPool::free_heap(void* p) {
  Header* h = header_of(p);
  assert(h->magic == kMagicHeap && "MemPool::free_heap of a non-heap buffer");
  h->magic = kMagicFree;
  ::operator delete[](h, std::align_val_t{16});
}

std::size_t MemPool::block_size(const void* p) const {
  const Header* h = header_of(p);
  assert(h->magic == kMagicLive);
  return bin_block_size(h->bin);
}

}  // namespace ugnirt::mempool
