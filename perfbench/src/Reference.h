//===- perfbench/src/Reference.h - Interleaved yardstick -------*- C++ -*-===//
//
// The shared host this benchmark runs on slows memory-bound work by tens of
// percent for minutes at a time, so an absolute latency says as much about
// the neighbours as about the program.  Every end-to-end latency is
// therefore reported relative to a reference unit of work timed in the same
// run, interleaved with the measured units: host drift slows both alike and
// cancels in the ratio.
//
// fig7 and mt-churn have a natural reference, the baseline allocator
// running the same program (fig7: BaselineAllocator; mt-churn: the same
// churn loop over the C library's malloc).  The two fleet loops use
// ReferenceKernel: a fixed piece of coding work (an LZ-style match finder
// over image-like bytes plus malloc churn) that calls none of the
// library's code, so no change to the library moves it.  Its working set
// is 256 KiB, in rounds: at 64 KiB and below the kernel runs from the
// fastest caches and at 1 MiB from the last level, and on a 4-vCPU Xeon
// VM two memory-streaming neighbours moved correction-loop's ratio by
// -3% and +5% at those sizes, against under 2% at 256 KiB (cumulative-loop:
// under 3% at every size).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstdint>
#include <vector>

namespace perfbench {

class ReferenceKernel {
public:
  /// Builds the kernel's input from \p Seed and runs it once, untimed.
  explicit ReferenceKernel(uint64_t Seed);

  /// Runs the kernel once and records its time.  Returns false when its
  /// checksum differs from the first run's (the kernel is deterministic).
  bool run();

  /// The recorded run times, in ms.
  const std::vector<double> &times() const { return Ms; }

private:
  uint64_t once();
  uint64_t round(uint64_t Sum);

  std::vector<uint8_t> Input;
  std::vector<uint32_t> Table;
  std::vector<uint32_t> Sizes;
  std::vector<uint32_t> Order;
  uint64_t Expected = 0;
  std::vector<double> Ms;
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
