// Host-thread fan-out for the N-Queens table builds.
//
// The exact and sampled cost models solve tens of thousands of independent
// threshold subtrees before a run starts.  parallel_for spreads them over
// one worker per hardware thread; each index writes only its own result
// slot, so what the builds produce does not depend on the worker count.
// These are the only host threads in the simulator: the simulated machine
// itself stays single-threaded.
#pragma once

#include <cstddef>
#include <functional>

namespace ugnirt::apps::nqueens {

/// Indices a worker claims at a time.
inline constexpr std::size_t kParallelForChunk = 16;

/// Workers parallel_for uses by default: one per hardware thread, at
/// least one.
unsigned hardware_workers();

/// Call `fn(i)` exactly once for every i in [0, count), on `workers`
/// threads (the caller is one of them).  Workers claim chunks of
/// kParallelForChunk indices from a shared counter, so uneven costs
/// balance.  `fn` must be safe to call concurrently for distinct i.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn,
                  unsigned workers = hardware_workers());

}  // namespace ugnirt::apps::nqueens
