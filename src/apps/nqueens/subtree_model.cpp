#include "apps/nqueens/subtree_model.hpp"

#include <algorithm>
#include <cassert>

namespace ugnirt::apps::nqueens {

namespace {

/// Enumerate all valid placements of the first `depth` rows.
void enumerate(std::uint32_t all, int depth, std::uint32_t cols,
               std::uint32_t diag_l, std::uint32_t diag_r,
               std::vector<Prefix>& out) {
  if (depth == 0) {
    out.push_back(Prefix{cols, diag_l, diag_r});
    return;
  }
  std::uint32_t free = all & ~(cols | diag_l | diag_r);
  while (free) {
    std::uint32_t bit = free & (0u - free);
    free ^= bit;
    enumerate(all, depth - 1, cols | bit, ((diag_l | bit) << 1) & all,
              (diag_r | bit) >> 1, out);
  }
}

/// Reverse the low `n` bits of `x` (bits at or above n must be clear).
std::uint32_t reverse_low_bits(int n, std::uint32_t x) {
  x = ((x >> 1) & 0x55555555u) | ((x & 0x55555555u) << 1);
  x = ((x >> 2) & 0x33333333u) | ((x & 0x33333333u) << 2);
  x = ((x >> 4) & 0x0f0f0f0fu) | ((x & 0x0f0f0f0fu) << 4);
  x = ((x >> 8) & 0x00ff00ffu) | ((x & 0x00ff00ffu) << 8);
  x = (x >> 16) | (x << 16);
  return x >> (32 - n);
}

/// Injective packing of a prefix on an n-wide board (3n <= 64 bits).
std::uint64_t pack(int n, const Prefix& p) {
  return static_cast<std::uint64_t>(p.cols) |
         static_cast<std::uint64_t>(p.diag_l) << n |
         static_cast<std::uint64_t>(p.diag_r) << (2 * n);
}

Prefix unpack(int n, std::uint64_t key) {
  const std::uint64_t mask = (std::uint64_t{1} << n) - 1;
  return Prefix{static_cast<std::uint32_t>(key & mask),
                static_cast<std::uint32_t>((key >> n) & mask),
                static_cast<std::uint32_t>((key >> (2 * n)) & mask)};
}

/// The key shared by a prefix and its mirror image.
std::uint64_t canonical_key(int n, const Prefix& p) {
  return std::min(pack(n, p), pack(n, mirror(n, p)));
}

/// SplitMix-style avalanche for prefix hashing.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t prefix_key(int row, std::uint32_t cols, std::uint32_t diag_l,
                         std::uint32_t diag_r) {
  std::uint64_t k = static_cast<std::uint64_t>(row);
  k = mix(k ^ (static_cast<std::uint64_t>(cols) << 8));
  k = mix(k ^ (static_cast<std::uint64_t>(diag_l) << 16));
  k = mix(k ^ (static_cast<std::uint64_t>(diag_r) << 24));
  return k;
}

std::vector<Prefix> enumerate_prefixes(int n, int depth) {
  assert(n >= 1 && n < 32 && depth >= 0 && depth <= n);
  std::vector<Prefix> out;
  enumerate((1u << n) - 1, depth, 0, 0, 0, out);
  return out;
}

Prefix mirror(int n, const Prefix& p) {
  return Prefix{reverse_low_bits(n, p.cols), reverse_low_bits(n, p.diag_r),
                reverse_low_bits(n, p.diag_l)};
}

std::unique_ptr<ExactModel> ExactModel::build(int n, int threshold) {
  assert(n >= 1 && 3 * n <= 64 && threshold >= 0 && threshold <= n);
  auto model = std::make_unique<ExactModel>();
  model->n_ = n;
  model->threshold_ = threshold;

  std::vector<std::uint64_t> keys;
  {
    const std::vector<Prefix> prefixes = enumerate_prefixes(n, threshold);
    keys.reserve(prefixes.size());
    for (const Prefix& p : prefixes) keys.push_back(canonical_key(n, p));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  model->table_.reserve(keys.size());
  for (std::uint64_t key : keys) {
    const Prefix p = unpack(n, key);
    model->table_.emplace_back(
        key, solve(n, threshold, p.cols, p.diag_l, p.diag_r));
  }
  return model;
}

SolveResult ExactModel::subtree(int n, int row, std::uint32_t cols,
                                std::uint32_t diag_l,
                                std::uint32_t diag_r) const {
  assert(n == n_ && row == threshold_ &&
         "exact model built for a different (n, threshold)");
  (void)row;
  const std::uint64_t key = canonical_key(n, Prefix{cols, diag_l, diag_r});
  auto it = std::lower_bound(
      table_.begin(), table_.end(), key,
      [](const auto& a, std::uint64_t k) { return a.first < k; });
  assert(it != table_.end() && it->first == key &&
         "prefix is not a valid placement of the first `threshold` rows");
  return it->second;
}

std::unique_ptr<SampledModel> SampledModel::build(int n, int threshold,
                                                  int samples,
                                                  std::uint64_t seed) {
  assert(n >= 1 && n < 32 && threshold >= 1 && threshold < n);
  auto model = std::make_unique<SampledModel>();
  model->n_ = n;
  model->threshold_ = threshold;

  std::vector<Prefix> prefixes = enumerate_prefixes(n, threshold);
  model->prefix_count_ = prefixes.size();
  if (prefixes.empty()) return model;

  // Deterministic sample without replacement (partial Fisher–Yates).
  Rng rng(seed ^ (static_cast<std::uint64_t>(n) << 8) ^
          static_cast<std::uint64_t>(threshold));
  std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(samples),
                                        prefixes.size());
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + rng.next_below(static_cast<std::uint32_t>(
                            prefixes.size() - i));
    std::swap(prefixes[i], prefixes[j]);
  }

  long double node_sum = 0, sol_sum = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Prefix& p = prefixes[i];
    SolveResult r = solve(n, threshold, p.cols, p.diag_l, p.diag_r);
    model->sampled_.emplace_back(
        prefix_key(threshold, p.cols, p.diag_l, p.diag_r), r);
    model->empirical_.push_back(r);
    node_sum += static_cast<long double>(r.nodes);
    sol_sum += static_cast<long double>(r.solutions);
  }
  std::sort(model->sampled_.begin(), model->sampled_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(model->empirical_.begin(), model->empirical_.end(),
            [](const SolveResult& a, const SolveResult& b) {
              return a.nodes < b.nodes;
            });
  model->est_nodes_ = static_cast<std::uint64_t>(
      node_sum / static_cast<long double>(k) *
      static_cast<long double>(prefixes.size()));
  model->est_solutions_ = static_cast<std::uint64_t>(
      sol_sum / static_cast<long double>(k) *
      static_cast<long double>(prefixes.size()));
  return model;
}

SolveResult SampledModel::subtree(int n, int row, std::uint32_t cols,
                                  std::uint32_t diag_l,
                                  std::uint32_t diag_r) const {
  assert(n == n_ && row == threshold_ &&
         "sampled model built for a different (n, threshold)");
  std::uint64_t key = prefix_key(row, cols, diag_l, diag_r);
  auto it = std::lower_bound(
      sampled_.begin(), sampled_.end(), key,
      [](const auto& a, std::uint64_t k) { return a.first < k; });
  if (it != sampled_.end() && it->first == key) return it->second;
  // Unsampled: deterministic draw from the empirical distribution.
  assert(!empirical_.empty());
  std::uint64_t draw = mix(key ^ 0x9e3779b97f4a7c15ULL);
  return empirical_[static_cast<std::size_t>(draw % empirical_.size())];
}

}  // namespace ugnirt::apps::nqueens
