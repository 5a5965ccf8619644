//===- observe/MetricsRegistry.cpp - Process-wide metrics plane -----------===//

#include "observe/MetricsRegistry.h"

#include "alloc/Allocator.h"
#include "alloc/ConcurrentAllocator.h"
#include "alloc/DieHardHeap.h"
#include "codec/BlockCodec.h"
#include "inject/FaultInjector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

using namespace exterminator;

//===----------------------------------------------------------------------===//
// MetricsSnapshot
//===----------------------------------------------------------------------===//

const MetricSample *MetricsSnapshot::find(std::string_view Name,
                                          std::string_view Labels) const {
  for (const MetricSample &S : Samples)
    if (S.Name == Name && (Labels.empty() || S.Labels == Labels))
      return &S;
  return nullptr;
}

std::optional<double> MetricsSnapshot::maxValue(std::string_view Name) const {
  std::optional<double> Max;
  for (const MetricSample &S : Samples)
    if (S.Name == Name && (!Max || S.Value > *Max))
      Max = S.Value;
  return Max;
}

//===----------------------------------------------------------------------===//
// Registration
//===----------------------------------------------------------------------===//

void MetricsRegistry::Histogram::observe(double Seconds) {
  if (!Cell)
    return;
  if (Seconds < 0.0)
    Seconds = 0.0;
  size_t Bucket = NumHistogramBuckets; // +Inf overflow
  for (size_t I = 0; I < NumHistogramBuckets; ++I)
    if (Seconds <= HistogramBucketBounds[I]) {
      Bucket = I;
      break;
    }
  Cell->Counts[Bucket].fetch_add(1, std::memory_order_relaxed);
  Cell->SumNanos.fetch_add(static_cast<uint64_t>(Seconds * 1e9),
                           std::memory_order_relaxed);
}

MetricsRegistry::Counter MetricsRegistry::counter(const std::string &Name,
                                                  const std::string &Labels) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (CounterCell &Cell : Counters)
    if (Cell.Name == Name && Cell.Labels == Labels)
      return Counter(&Cell);
  CounterCell &Cell = Counters.emplace_back();
  Cell.Name = Name;
  Cell.Labels = Labels;
  return Counter(&Cell);
}

MetricsRegistry::Gauge MetricsRegistry::gauge(const std::string &Name,
                                              const std::string &Labels) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (GaugeCell &Cell : Gauges)
    if (Cell.Name == Name && Cell.Labels == Labels)
      return Gauge(&Cell);
  GaugeCell &Cell = Gauges.emplace_back();
  Cell.Name = Name;
  Cell.Labels = Labels;
  return Gauge(&Cell);
}

MetricsRegistry::Histogram
MetricsRegistry::histogram(const std::string &Name, const std::string &Labels) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (HistogramCell &Cell : Histograms)
    if (Cell.Name == Name && Cell.Labels == Labels)
      return Histogram(&Cell);
  HistogramCell &Cell = Histograms.emplace_back();
  Cell.Name = Name;
  Cell.Labels = Labels;
  return Histogram(&Cell);
}

void MetricsRegistry::addCollector(Collector Fn) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Collectors.push_back(std::move(Fn));
}

//===----------------------------------------------------------------------===//
// Snapshot
//===----------------------------------------------------------------------===//

void MetricsRegistry::addCounter(std::vector<MetricSample> &Out,
                                 std::string Name, std::string Labels,
                                 double Value) {
  Out.push_back(MetricSample{std::move(Name), std::move(Labels), Value,
                             SampleKind::Counter});
}

void MetricsRegistry::addGauge(std::vector<MetricSample> &Out,
                               std::string Name, std::string Labels,
                               double Value) {
  Out.push_back(MetricSample{std::move(Name), std::move(Labels), Value,
                             SampleKind::Gauge});
}

/// Linear interpolation of quantile \p Q within fixed buckets: the rank
/// is located in the cumulative distribution and positioned
/// proportionally between the bucket's bounds.  Observations past the
/// last bound report the last bound — the histogram cannot distinguish
/// beyond it.
static double quantileFromBuckets(const uint64_t (&Counts)[NumHistogramBuckets +
                                                           1],
                                  uint64_t Total, double Q) {
  const double Rank = Q * double(Total);
  uint64_t Cum = 0;
  for (size_t I = 0; I <= NumHistogramBuckets; ++I) {
    const uint64_t Here = Counts[I];
    if (Here == 0)
      continue;
    if (double(Cum + Here) >= Rank) {
      if (I == NumHistogramBuckets)
        return HistogramBucketBounds[NumHistogramBuckets - 1];
      const double Lower = I == 0 ? 0.0 : HistogramBucketBounds[I - 1];
      const double Upper = HistogramBucketBounds[I];
      const double Fraction =
          std::min(1.0, std::max(0.0, (Rank - double(Cum)) / double(Here)));
      return Lower + Fraction * (Upper - Lower);
    }
    Cum += Here;
  }
  return 0.0;
}

/// Formats a bucket bound the way %g prints it ("1e-06", "0.001", "10")
/// — deterministic, so scrapes are greppable.
static std::string formatBound(double Bound) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", Bound);
  return Buf;
}

void MetricsRegistry::flattenHistogram(const HistogramCell &Cell,
                                       std::vector<MetricSample> &Out) const {
  uint64_t Counts[NumHistogramBuckets + 1];
  uint64_t Total = 0;
  for (size_t I = 0; I <= NumHistogramBuckets; ++I) {
    Counts[I] = Cell.Counts[I].load(std::memory_order_relaxed);
    Total += Counts[I];
  }
  const std::string Prefix = Cell.Labels.empty() ? "" : Cell.Labels + ",";
  uint64_t Cum = 0;
  for (size_t I = 0; I < NumHistogramBuckets; ++I) {
    Cum += Counts[I];
    addCounter(Out, Cell.Name + "_bucket",
               Prefix + label("le", formatBound(HistogramBucketBounds[I])),
               double(Cum));
  }
  addCounter(Out, Cell.Name + "_bucket", Prefix + label("le", "+Inf"),
             double(Total));
  addCounter(Out, Cell.Name + "_sum", Cell.Labels,
             double(Cell.SumNanos.load(std::memory_order_relaxed)) / 1e9);
  addCounter(Out, Cell.Name + "_count", Cell.Labels, double(Total));
  if (Total == 0)
    return;
  addGauge(Out, Cell.Name, Prefix + label("quantile", "0.5"),
           quantileFromBuckets(Counts, Total, 0.5));
  addGauge(Out, Cell.Name, Prefix + label("quantile", "0.99"),
           quantileFromBuckets(Counts, Total, 0.99));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot Snap;
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const CounterCell &Cell : Counters)
    addCounter(Snap.Samples, Cell.Name, Cell.Labels,
               double(Cell.Value.load(std::memory_order_relaxed)));
  for (const GaugeCell &Cell : Gauges)
    addGauge(Snap.Samples, Cell.Name, Cell.Labels,
             Cell.Value.load(std::memory_order_relaxed));
  for (const HistogramCell &Cell : Histograms)
    flattenHistogram(Cell, Snap.Samples);
  for (const Collector &Fn : Collectors)
    Fn(Snap.Samples);
  return Snap;
}

//===----------------------------------------------------------------------===//
// Text exposition
//===----------------------------------------------------------------------===//

std::string MetricsRegistry::label(std::string_view Key,
                                   std::string_view Value) {
  std::string Out;
  Out.reserve(Key.size() + Value.size() + 3);
  Out.append(Key);
  Out += "=\"";
  for (char C : Value) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += C;
    }
  }
  Out += '"';
  return Out;
}

static void appendValue(std::string &Out, double Value) {
  char Buf[40];
  // Counters and integral gauges print without an exponent or decimal
  // point so `grep 'metric_total 3'` works; everything else gets %.9g.
  if (std::floor(Value) == Value && std::fabs(Value) < 9.0e15)
    std::snprintf(Buf, sizeof(Buf), "%.0f", Value);
  else
    std::snprintf(Buf, sizeof(Buf), "%.9g", Value);
  Out += Buf;
}

std::string MetricsRegistry::renderText(const MetricsSnapshot &Snap) {
  std::string Out;
  std::set<std::string> Announced;
  for (const MetricSample &S : Snap.Samples) {
    if (Announced.insert(S.Name).second) {
      Out += "# TYPE ";
      Out += S.Name;
      Out += S.Kind == SampleKind::Counter ? " counter\n" : " gauge\n";
    }
    Out += S.Name;
    if (!S.Labels.empty()) {
      Out += '{';
      Out += S.Labels;
      Out += '}';
    }
    Out += ' ';
    appendValue(Out, S.Value);
    Out += '\n';
  }
  return Out;
}

std::string MetricsRegistry::renderText() const { return renderText(snapshot()); }

//===----------------------------------------------------------------------===//
// Allocator adapter
//===----------------------------------------------------------------------===//

void exterminator::registerAllocatorMetrics(MetricsRegistry &Registry,
                                            const Allocator &Heap,
                                            std::string Label) {
  std::string Labels = MetricsRegistry::label("heap", Label);
  Registry.addCollector([&Heap, Labels = std::move(Labels)](
                            std::vector<MetricSample> &Out) {
    // AllocatorStats counters are written on the allocation hot path
    // and read here without synchronization: tear-prone but benign, the
    // same contract as the exit-time printing the plane replaces.
    const AllocatorStats &S = Heap.stats();
    MetricsRegistry::addCounter(Out, "xterm_alloc_allocations_total", Labels,
                                double(S.Allocations));
    MetricsRegistry::addCounter(Out, "xterm_alloc_deallocations_total", Labels,
                                double(S.Deallocations));
    MetricsRegistry::addCounter(Out, "xterm_alloc_invalid_frees_total", Labels,
                                double(S.InvalidFrees));
    MetricsRegistry::addCounter(Out, "xterm_alloc_double_frees_total", Labels,
                                double(S.DoubleFrees));
    MetricsRegistry::addCounter(Out, "xterm_alloc_bytes_requested_total",
                                Labels, double(S.BytesRequested));
  });
}

void exterminator::registerFrontEndMetrics(MetricsRegistry &Registry,
                                           const ConcurrentAllocator &Alloc,
                                           std::string Label) {
  std::string Labels = MetricsRegistry::label("heap", Label);
  Registry.addCollector([&Alloc, Labels = std::move(Labels)](
                            std::vector<MetricSample> &Out) {
    const ConcurrentAllocator::LockStats S = Alloc.lockStats();
    MetricsRegistry::addCounter(Out, "xterm_alloc_lock_acquires_total", Labels,
                                double(S.Acquisitions));
    MetricsRegistry::addCounter(Out, "xterm_alloc_lock_spun_total", Labels,
                                double(S.Spun));
    MetricsRegistry::addCounter(Out, "xterm_alloc_lock_parked_total", Labels,
                                double(S.Parked));
    const std::pair<const char *, uint64_t> Applied[] = {
        {"refill", S.FreesAtRefill},
        {"bound", S.FreesAtBound},
        {"flush", S.FreesAtFlush}};
    for (const auto &[At, N] : Applied)
      MetricsRegistry::addCounter(
          Out, "xterm_alloc_frees_applied_total",
          Labels + "," + MetricsRegistry::label("at", At), double(N));
  });
}

void exterminator::registerInjectorMetrics(MetricsRegistry &Registry,
                                           const FaultInjector &Injector,
                                           std::string Label) {
  std::string Labels = MetricsRegistry::label("heap", Label);
  Registry.addCollector([&Injector, Labels = std::move(Labels)](
                            std::vector<MetricSample> &Out) {
    const FaultInjectorStats &S = Injector.injectorStats();
    MetricsRegistry::addCounter(Out, "xterm_inject_software_faults_total",
                                Labels, double(S.SoftwareFaultsFired));
    MetricsRegistry::addCounter(Out, "xterm_inject_hardware_events_total",
                                Labels, double(S.HardwareFaultEvents));
    MetricsRegistry::addCounter(Out, "xterm_inject_bits_flipped_total",
                                Labels, double(S.BitsFlipped));
    MetricsRegistry::addCounter(Out, "xterm_inject_stuckat_rewrites_total",
                                Labels, double(S.StuckAtRewrites));
    MetricsRegistry::addCounter(Out, "xterm_inject_row_objects_total", Labels,
                                double(S.RowObjectsCorrupted));
  });
}

void exterminator::registerRetirementMetrics(MetricsRegistry &Registry,
                                             const DieHardHeap &Heap,
                                             std::string Label) {
  std::string Labels = MetricsRegistry::label("heap", Label);
  Registry.addCollector([&Heap, Labels = std::move(Labels)](
                            std::vector<MetricSample> &Out) {
    MetricsRegistry::addGauge(Out, "xterm_retired_pages", Labels,
                              double(Heap.retiredPageCount()));
    MetricsRegistry::addGauge(Out, "xterm_retired_slots", Labels,
                              double(Heap.retiredSlotCount()));
  });
}

void exterminator::registerCodecMetrics(MetricsRegistry &Registry) {
  // The codec counters are process-global (every wire frame, snapshot,
  // and bundle in the process funnels through the same encoder), so the
  // collector captures nothing.
  Registry.addCollector([](std::vector<MetricSample> &Out) {
    const CodecStatsSnapshot S = codecStats();
    MetricsRegistry::addCounter(Out, "xterm_codec_compress_calls_total", {},
                                double(S.CompressCalls));
    MetricsRegistry::addCounter(Out, "xterm_codec_compress_in_bytes_total", {},
                                double(S.CompressInBytes));
    MetricsRegistry::addCounter(Out, "xterm_codec_compress_out_bytes_total", {},
                                double(S.CompressOutBytes));
    MetricsRegistry::addCounter(Out, "xterm_codec_decompress_calls_total", {},
                                double(S.DecompressCalls));
    MetricsRegistry::addCounter(Out, "xterm_codec_decompress_out_bytes_total",
                                {}, double(S.DecompressOutBytes));
    MetricsRegistry::addCounter(Out, "xterm_codec_incompressible_blocks_total",
                                {}, double(S.IncompressibleBlocks));
    MetricsRegistry::addCounter(Out, "xterm_codec_rejected_blocks_total", {},
                                double(S.RejectedBlocks));
  });
}
