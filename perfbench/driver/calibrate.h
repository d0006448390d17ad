// A fixed CPU and memory workload that is not the repository's code, timed
// in the driver's own process. On a shared virtual machine the speed of the
// same work differs from process to process; the benchmark divides its wall
// times by this loop's time, measured alongside them, so that a run's
// figures read at a reference speed.
#ifndef PERFBENCH_DRIVER_CALIBRATE_H_
#define PERFBENCH_DRIVER_CALIBRATE_H_

namespace perfbench {

/// Wall time in microseconds of one pass of the calibration loop: hash-map
/// inserts, lookups and erases over pointer-linked nodes, a sort, and a
/// chain of dependent loads over a buffer larger than L2: about the mix of
/// hashing and pointer chasing an engine does. The pass uses a private
/// 16 MB buffer, not the heap. Its output is checked, so the compiler
/// cannot drop it.
double CalibrationPassUs();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_CALIBRATE_H_
