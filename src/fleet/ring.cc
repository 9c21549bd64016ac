#include "fleet/ring.h"

#include <algorithm>
#include <charconv>
#include <initializer_list>

#include "common/logging.h"

namespace ads::fleet {

namespace {

/// FNV-1a over the seed bytes then each part's bytes in order — cheap,
/// stable and platform-independent (the same idiom as the autonomy tenant
/// slice) — finished with the murmur3 fmix64 finalizer. Hashing the parts
/// in sequence equals hashing their concatenation.
uint64_t HashParts(uint64_t seed,
                   std::initializer_list<std::string_view> parts) {
  constexpr uint64_t kFnvPrime = 1099511628211ull;
  uint64_t h = 14695981039346656037ull;
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (seed >> shift) & 0xffull;
    h *= kFnvPrime;
  }
  for (std::string_view part : parts) {
    for (char c : part) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnvPrime;
    }
  }
  // Raw FNV-1a has no avalanche on the tail bytes: keys that differ only
  // in a trailing counter ("tenant-0".."tenant-39") land within a few
  // thousand of each other and would collapse onto one ring arc. The
  // murmur3 finalizer mixes every input bit into every output bit.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

HashRing::HashRing(RingOptions options) : options_(options) {
  ADS_CHECK(options_.vnodes_per_shard >= 1) << "ring needs at least 1 vnode";
}

uint64_t HashRing::HashKey(uint64_t seed, std::string_view key) {
  return HashParts(seed, {key});
}

uint64_t HashRing::HashKey(uint64_t seed, std::string_view tenant,
                           uint64_t id) {
  char digits[20];  // 2^64 - 1 has 20 decimal digits
  const std::to_chars_result printed =
      std::to_chars(digits, digits + sizeof(digits), id);
  return HashParts(seed,
                   {tenant, "#",
                    std::string_view(digits, static_cast<size_t>(
                                                 printed.ptr - digits))});
}

void HashRing::AddShard(ShardId shard) {
  if (!shards_.insert(shard).second) return;
  ring_.reserve(ring_.size() + options_.vnodes_per_shard);
  for (size_t v = 0; v < options_.vnodes_per_shard; ++v) {
    const std::string key =
        "s" + std::to_string(shard) + "#" + std::to_string(v);
    ring_.emplace_back(HashKey(options_.seed, key), shard);
  }
  std::sort(ring_.begin(), ring_.end());
}

void HashRing::RemoveShard(ShardId shard) {
  if (shards_.erase(shard) == 0) return;
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [shard](const std::pair<uint64_t, ShardId>& p) {
                               return p.second == shard;
                             }),
              ring_.end());
}

std::vector<ShardId> HashRing::Shards() const {
  return std::vector<ShardId>(shards_.begin(), shards_.end());
}

size_t HashRing::FirstAtOrAfter(uint64_t point) const {
  ADS_CHECK(!ring_.empty()) << "empty hash ring";
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const std::pair<uint64_t, ShardId>& vnode, uint64_t p) {
        return vnode.first < p;
      });
  if (it == ring_.end()) return 0;  // wrap
  return static_cast<size_t>(it - ring_.begin());
}

ShardId HashRing::ShardFor(std::string_view tenant) const {
  return ring_[FirstAtOrAfter(HashKey(options_.seed, tenant))].second;
}

std::vector<ShardId> HashRing::PreferenceOrder(std::string_view tenant,
                                               size_t k) const {
  std::vector<ShardId> order;
  const size_t start = FirstAtOrAfter(HashKey(options_.seed, tenant));
  const size_t want = std::min(k, shards_.size());
  for (size_t step = 0; step < ring_.size() && order.size() < want; ++step) {
    ShardId shard = ring_[(start + step) % ring_.size()].second;
    if (std::find(order.begin(), order.end(), shard) == order.end()) {
      order.push_back(shard);
    }
  }
  return order;
}

}  // namespace ads::fleet
