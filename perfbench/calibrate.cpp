// perfbench_calibrate — a fixed CPU workload that times the host, not saSTA.
//
//   perfbench_calibrate
//
// Runs the same mix of integer work on one thread every time (a dependent
// xorshift chain, eight independent lanes, a sort, hash-map inserts and
// probes, and a pointer chase over 16 MiB) and prints the thread CPU
// seconds it took as {"seconds": s, "checksum": c}.  It includes nothing
// from the repository, so no change to the program under test can move it;
// run.py divides its timings by this figure to cancel the host's speed
// swings (see README.md, "Host speed").
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace {

double thread_seconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + 1e-9 * ts.tv_nsec;
}

std::uint64_t next(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

std::uint64_t chain(std::uint64_t x) {
  std::uint64_t acc = 0;
  for (long i = 0; i < 20000000; ++i) acc += next(x) & 0xff;
  return acc;
}

std::uint64_t lanes(std::uint64_t x) {
  std::uint64_t l[8], acc = 0;
  for (int j = 0; j < 8; ++j) l[j] = x + j * 0x9e3779b97f4a7c15ull;
  for (long i = 0; i < 6000000; ++i) {
    for (auto& v : l) acc += next(v) & 0xff;
  }
  return acc;
}

std::uint64_t sorting(std::uint64_t x) {
  std::vector<std::uint32_t> v(500000);
  for (auto& e : v) e = static_cast<std::uint32_t>(next(x));
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::uint64_t hashing(std::uint64_t x) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::unordered_map<std::uint64_t, std::uint32_t> m;
  for (int i = 0; i < 200000; ++i) m[(next(x) % 100000) * kMul] += 1 + (i & 1);
  std::uint64_t acc = 0;
  for (int i = 0; i < 300000; ++i) {
    auto it = m.find((next(x) % 100000) * kMul);
    if (it != m.end() && (it->second & 2)) acc += it->second; else acc ^= i;
  }
  return acc;
}

std::uint64_t chase(std::uint64_t x) {
  std::vector<std::uint64_t> v((16u << 20) / sizeof(std::uint64_t));
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i * 2654435761u;
  std::size_t idx = 0;
  std::uint64_t acc = 0;
  for (long i = 0; i < 400000; ++i) {
    idx = (next(x) ^ v[idx]) % v.size();
    acc += v[idx];
  }
  return acc;
}

}  // namespace

int main() {
  const std::uint64_t seed = 88172645463325252ull;
  const double t0 = thread_seconds();
  std::uint64_t sum = 0;
  for (int rep = 0; rep < 2; ++rep) {
    sum += chain(seed + rep) + lanes(seed + rep) + sorting(seed + rep) + hashing(seed + rep) + chase(seed + rep);
  }
  const double s = thread_seconds() - t0;
  std::printf("{\"seconds\": %.6f, \"checksum\": %llu}\n", s, static_cast<unsigned long long>(sum));
  return 0;
}
