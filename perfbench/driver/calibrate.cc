#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory_resource>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr uint64_t kKeys = 1 << 15;
// The hash map allocates from the first kMapBytes of the arena: enough for
// every allocation of one pass, with room to spare (a pass that needed more
// would throw rather than fall back to the heap). The rest, several times a
// core's L2 cache, is read by a chain of dependent loads.
constexpr size_t kMapBytes = 4 << 20;
constexpr size_t kArenaBytes = 16 << 20;
constexpr uint64_t kWalkSteps = 1 << 13;

/// The memory every pass uses: one buffer, touched once when it is made,
/// so a pass's speed does not depend on the state of the process's heap,
/// which differs from workload to workload.
std::byte* Arena() {
  static std::vector<std::byte> buffer(kArenaBytes);
  return buffer.data();
}

/// Dependent loads at pseudo-random cache lines of the walk region, which
/// stays zero: each address depends on the value the previous load read,
/// so the loads wait on the cache hierarchy one at a time, as an engine's
/// pointer chasing through a working set larger than L2 does.
uint64_t Walk() {
  const auto* words = reinterpret_cast<const uint64_t*>(Arena() + kMapBytes);
  constexpr uint64_t kLines = (kArenaBytes - kMapBytes) / 64;
  uint64_t got = 0;
  for (uint64_t i = 0; i < kWalkSteps; ++i) {
    got += words[(Mix(i + got) % kLines) * 8];
  }
  return got;
}

uint64_t Pass() {
  std::pmr::monotonic_buffer_resource arena(Arena(), kMapBytes,
                                            std::pmr::null_memory_resource());
  std::pmr::unordered_map<uint64_t, uint64_t> m(&arena);
  for (uint64_t i = 0; i < kKeys; ++i) m[Mix(i)] = i;
  uint64_t sum = 0;
  for (uint64_t i = 0; i < 2 * kKeys; ++i) {
    auto it = m.find(Mix(i));
    if (it != m.end()) sum += it->second;
  }
  for (uint64_t i = 0; i < kKeys; i += 2) m.erase(Mix(i));
  std::pmr::vector<uint64_t> v(&arena);
  v.reserve(m.size());
  for (const auto& [k, x] : m) v.push_back(k ^ x);
  std::sort(v.begin(), v.end());
  return sum + v.size() + (v.empty() ? 0 : v[v.size() / 2] & 1) + Walk();
}

}  // namespace

double CalibrationPassUs() {
  Arena();  // made, and its pages touched, outside the timed pass
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t got = Pass();
  const auto t1 = std::chrono::steady_clock::now();
  // Sum of 0..kKeys-1, plus the kKeys / 2 odd keys left, plus one bit; the
  // walk reads only zeros.
  constexpr uint64_t kSum = kKeys * (kKeys - 1) / 2 + kKeys / 2;
  if (got != kSum && got != kSum + 1) {
    std::fprintf(stderr, "calibration loop computed %llu\n",
                 static_cast<unsigned long long>(got));
    std::abort();
  }
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

}  // namespace perfbench
