//===- perfbench/src/Harness.h - Benchmark plumbing ------------*- C++ -*-===//
//
// Timing, order statistics, the per-run report, and the span recorder the
// traced runs use.  Spans are recorded from the benchmark's own code,
// around calls into the library's public functions; nothing inside the
// library is instrumented.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return secondsBetween(A, B) * 1e3;
}

/// Linear-interpolated quantile \p Q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}
double geomean(const std::vector<double> &Values);

/// SplitMix64: derives independent, reproducible streams from the
/// workload seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

/// What the command line asked for.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  /// Scratch directory for sockets and server state, private to this run.
  std::string RunDir;
  /// Where a traced run writes its spans (empty: not written).
  std::string TracePath;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// One workload run's outcome.  Every check is a pure function of the
/// seed, so Attempted/Failed repeat exactly for a repeated seed.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Set-up times of the repeated set-ups (median reported as setup_s).
  std::vector<double> SetupSeconds;
  /// Median and tail latency of the workload's unit of work, and units
  /// completed per second.
  double P50Ms = 0, P90Ms = 0, RatePerS = 0;
  /// The same median and tail latency divided by the median time of the
  /// workload's reference unit, timed interleaved in the same run (see
  /// Reference.h), and that median itself.
  double P50Rel = 0, P90Rel = 0, RefMs = 0;
  std::vector<Metric> PerLayer;

  /// Counts one check; a failed one is also named on stderr.
  void check(bool Ok, const char *What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", What);
    }
  }
  void layer(const std::string &Name, double Value, const char *Unit) {
    PerLayer.push_back({Name, Value, Unit});
  }
};

/// In-memory span recorder.  A span carries its name, start, end, parent
/// span and request id; a layer's self time is its span minus the part
/// of that interval its child spans cover.  Disabled recorders cost one
/// branch per call.
class Tracer {
public:
  struct Span {
    const char *Name;
    uint64_t Request;
    int32_t Parent;
    Clock::time_point Start, End;
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled) {}
  bool enabled() const { return Enabled; }

  int32_t begin(const char *Name, uint64_t Request, int32_t Parent = -1) {
    if (!Enabled)
      return -1;
    Spans.push_back({Name, Request, Parent, Clock::now(), {}});
    return static_cast<int32_t>(Spans.size() - 1);
  }
  void end(int32_t Id) {
    if (Id >= 0)
      Spans[Id].End = Clock::now();
  }

  /// Duration in ms of every span named \p Name, in recording order;
  /// with \p Self, minus the time its child spans cover.
  std::vector<double> spanMs(const std::string &Name, bool Self = true) const;
  /// Writes every span as one JSON object per line.
  bool writeJsonLines(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<Span> Spans;
};

/// Closes a span at scope exit.
class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name, uint64_t Request, int32_t Parent = -1)
      : T(T), Id(T.begin(Name, Request, Parent)) {}
  ~SpanScope() { T.end(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int32_t Id;
};

// The four workloads.  Each builds its inputs and system under test from
// Opts.Seed (timed into SetupSeconds), then measures for Opts.Seconds.
Report runFig7(const Options &Opts);
Report runMtChurn(const Options &Opts);
Report runCorrectionLoop(const Options &Opts);
Report runCumulativeLoop(const Options &Opts);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
