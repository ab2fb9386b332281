// Host calibration: a fixed CPU-bound kernel timed on 1 and on 4 threads,
// recorded next to the results so that "this box cannot scale right now"
// is told apart from "this code cannot scale".
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

namespace perfbench {

struct HostCalibration {
  double ms_1t = 0;  ///< the whole kernel on one thread
  double ms_4t = 0;  ///< the same work split over four threads
  double speedup_4t = 0;  ///< ms_1t / ms_4t
};

/// Median of three 1-thread/4-thread pairs after one second of 4-thread
/// warm-up (about 2 s in total).
HostCalibration CalibrateHost();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
