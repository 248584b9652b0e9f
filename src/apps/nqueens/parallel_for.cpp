#include "apps/nqueens/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace ugnirt::apps::nqueens {

unsigned hardware_workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn,
                  unsigned workers) {
  const std::size_t chunks =
      (count + kParallelForChunk - 1) / kParallelForChunk;
  const std::size_t threads =
      std::min<std::size_t>(std::max(1u, workers), chunks);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (;;) {
      const std::size_t begin =
          next.fetch_add(kParallelForChunk, std::memory_order_relaxed);
      if (begin >= count) return;
      const std::size_t end = std::min(count, begin + kParallelForChunk);
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }
  };
  // jthread joins on destruction, so every worker has finished (and its
  // writes are visible to the caller) before parallel_for returns.
  std::vector<std::jthread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
}

}  // namespace ugnirt::apps::nqueens
