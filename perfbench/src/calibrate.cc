#include "calibrate.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

constexpr int kLanes = 4;
constexpr uint64_t kTotalSteps = uint64_t{1} << 27;
constexpr double kWarmUpMs = 1000;

std::atomic<uint64_t> g_sink{0};

/// A dependent multiply-xorshift chain: no memory traffic, no sharing.
void Kernel(uint64_t steps, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < steps; ++i) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull;
  }
  g_sink.fetch_add(x, std::memory_order_relaxed);
}

double TimeMs(int lanes) {
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int lane = 1; lane < lanes; ++lane) {
    threads.emplace_back(Kernel, kTotalSteps / lanes, lane);
  }
  Kernel(kTotalSteps / lanes, 0);
  for (std::thread& t : threads) t.join();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Median3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

}  // namespace

HostCalibration CalibrateHost() {
  // After a long single-threaded phase, the idle vCPUs of a virtual
  // machine can take on the order of a second of load to run in parallel
  // again; warm them up for kWarmUpMs before timing.
  double warm_ms = 0;
  while (warm_ms < kWarmUpMs) warm_ms += TimeMs(kLanes);
  double one[3];
  double four[3];
  for (int i = 0; i < 3; ++i) {
    one[i] = TimeMs(1);
    four[i] = TimeMs(kLanes);
  }
  HostCalibration calib;
  calib.ms_1t = Median3(one[0], one[1], one[2]);
  calib.ms_4t = Median3(four[0], four[1], four[2]);
  calib.speedup_4t = calib.ms_1t / calib.ms_4t;
  return calib;
}

}  // namespace perfbench
