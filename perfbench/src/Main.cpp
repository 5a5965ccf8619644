//===- perfbench/src/Main.cpp - Benchmark entry point -----------------------===//
//
//   perfbench --workload <fig7|mt-churn|correction-loop|cumulative-loop>
//             --seed N --seconds S --trace 0|1 --run-dir DIR
//             [--trace-out FILE]
//
// Prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set: setup_s, ok_ratio,
// and p50_rel, the unit of work's median latency relative to the
// workload's interleaved reference unit (Reference.h says why).  With
// --trace 1 the run measures S/2 seconds untraced and S/2 traced and
// prints every per-layer metric, among them p90_rel and the absolute
// p50_ms, p90_ms and rate_per_s, plus trace_overhead (traced p50 /
// untraced p50 - 1).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

using namespace perfbench;

namespace {

/// Every per-layer metric a traced run prints.  A workload reports the
/// layers it calls; the rest read 0 (that layer did no work here).
const std::vector<std::pair<std::string, const char *>> &perLayerCatalogue() {
  static const std::vector<std::pair<std::string, const char *>> List = [] {
    std::vector<std::pair<std::string, const char *>> L;
    const char *Rows[] = {"cfrac",       "espresso",   "lindsay", "p2c",
                          "roboop",      "suite_alloc", "suite_spec"};
    L.push_back({"p90_rel", "ratio"});
    L.push_back({"p50_ms", "ms"});
    L.push_back({"p90_ms", "ms"});
    L.push_back({"rate_per_s", "1/s"});
    L.push_back({"ref_ms", "ms"});
    L.push_back({"slowdown_alloc", "ratio"});
    L.push_back({"slowdown_spec", "ratio"});
    for (const char *Prefix :
         {"alloc.diehard_x.", "diefast.canary_x.", "correct.x."})
      for (const char *Row : Rows)
        L.push_back({std::string(Prefix) + Row, "ratio"});
    for (int I = 0; I < 5; ++I)
      L.push_back({std::string("alloc.ops.") + Rows[I], "count"});
    for (const char *Name :
         {"alloc.allocate_ns", "alloc.free_local_ns", "alloc.free_remote_ns",
          "alloc.allocate_ns_1t", "alloc.free_local_ns_1t"})
      L.push_back({Name, "ns"});
    L.push_back({"ops_per_s_1t", "1/s"});
    L.push_back({"alloc.lock_acquires_per_op", "ratio"});
    L.push_back({"alloc.parallelism", "ratio"});
    L.push_back({"alloc.remote_free_share", "ratio"});
    for (const char *Name :
         {"heapimage.capture_ms", "heapimage.bundle_encode_ms",
          "codec.frame_encode_ms", "exchange.frame_decode_ms",
          "heapimage.bundle_decode_ms", "isolate.isolate_ms",
          "patch.merge_ms", "exchange.submit_rtt_ms", "exchange.visible_ms",
          "exchange.fetch_ms", "exchange.residual_ms"})
      L.push_back({Name, "ms"});
    L.push_back({"heapimage.slots_per_image", "count"});
    L.push_back({"heapimage.raw_kb_per_item", "KiB"});
    L.push_back({"exchange.wire_kb_per_item", "KiB"});
    L.push_back({"codec.ratio", "ratio"});
    L.push_back({"isolate.patched_items", "count"});
    for (const char *Name :
         {"cumulative.add_run_ms", "cumulative.classify_ms",
          "exchange.summary_rtt_ms", "exchange.sync_ms"})
      L.push_back({Name, "ms"});
    for (const char *Name :
         {"cumulative.trials_per_summary", "cumulative.pairs_tracked",
          "cumulative.runs_to_patch", "exchange.replicated_summaries",
          "exchange.duplicates_suppressed"})
      L.push_back({Name, "count"});
    L.push_back({"trace_overhead", "ratio"});
    return L;
  }();
  return List;
}

Report runWorkload(const Options &Opts) {
  if (Opts.Workload == "fig7")
    return runFig7(Opts);
  if (Opts.Workload == "mt-churn")
    return runMtChurn(Opts);
  if (Opts.Workload == "correction-loop")
    return runCorrectionLoop(Opts);
  return runCumulativeLoop(Opts);
}

void printMetric(bool &First, const std::string &Name, double Value,
                 const char *Unit) {
  if (!std::isfinite(Value)) {
    std::fprintf(stderr, "perfbench: %s is not finite\n", Name.c_str());
    std::exit(1);
  }
  std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
              First ? "" : ", ", Name.c_str(), Value, Unit);
  First = false;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --run-dir DIR [--trace-out FILE]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      Opts.Workload = Value;
    else if (Flag == "--seed")
      Opts.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Opts.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      Opts.Traced = Value == "1";
    else if (Flag == "--run-dir")
      Opts.RunDir = Value;
    else if (Flag == "--trace-out")
      Opts.TracePath = Value;
    else
      return usage();
  }
  static const std::set<std::string> Known = {"fig7", "mt-churn",
                                              "correction-loop",
                                              "cumulative-loop"};
  if (!Known.count(Opts.Workload) || Opts.Seconds <= 0 || Opts.RunDir.empty())
    return usage();

  Report R;
  double TraceOverhead = 0.0;
  if (!Opts.Traced) {
    R = runWorkload(Opts);
  } else {
    Options Half = Opts;
    Half.Seconds = Opts.Seconds / 2;
    Half.Traced = false;
    const Report Untraced = runWorkload(Half);
    Half.Traced = true;
    R = runWorkload(Half);
    R.Attempted += Untraced.Attempted;
    R.Failed += Untraced.Failed;
    if (Untraced.P50Ms > 0)
      TraceOverhead = R.P50Ms / Untraced.P50Ms - 1.0;
  }

  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed == 0 && R.Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  bool First = true;
  if (!Opts.Traced) {
    printMetric(First, "setup_s", median(R.SetupSeconds), "s");
    printMetric(First, "ok_ratio",
                R.Attempted ? double(R.Attempted - R.Failed) / R.Attempted
                            : 0.0,
                "ratio");
    printMetric(First, "p50_rel", R.P50Rel, "ratio");
  } else {
    R.layer("p90_rel", R.P90Rel, "ratio");
    R.layer("p50_ms", R.P50Ms, "ms");
    R.layer("p90_ms", R.P90Ms, "ms");
    R.layer("rate_per_s", R.RatePerS, "1/s");
    R.layer("ref_ms", R.RefMs, "ms");
    std::set<std::string> Reported;
    for (const Metric &M : R.PerLayer)
      Reported.insert(M.Name);
    for (const auto &[Name, Unit] : perLayerCatalogue()) {
      double Value = Name == "trace_overhead" ? TraceOverhead : 0.0;
      for (const Metric &M : R.PerLayer)
        if (M.Name == Name)
          Value = M.Value;
      Reported.erase(Name);
      printMetric(First, Name, Value, Unit);
    }
    if (!Reported.empty()) {
      std::fprintf(stderr, "perfbench: metric %s missing from catalogue\n",
                   Reported.begin()->c_str());
      return 1;
    }
  }
  std::printf("}}\n");
  return 0;
}
