//===- perfbench/src/Harness.cpp - Benchmark plumbing -----------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace perfbench;

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - double(Lo));
}

double perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ull * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

std::vector<double> Tracer::spanMs(const std::string &Name, bool Self) const {
  // Children of one parent are recorded sequentially on one thread, so
  // they never overlap: their durations sum to the covered interval.
  std::vector<double> ChildMs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildMs[S.Parent] += msBetween(S.Start, S.End);
  std::vector<double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Name == Spans[I].Name)
      Out.push_back(msBetween(Spans[I].Start, Spans[I].End) -
                    (Self ? ChildMs[I] : 0.0));
  return Out;
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  const Clock::time_point Origin =
      Spans.empty() ? Clock::time_point() : Spans.front().Start;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,"
                 "\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 I, S.Name, static_cast<unsigned long long>(S.Request),
                 S.Parent, msBetween(Origin, S.Start) * 1e3,
                 msBetween(Origin, S.End) * 1e3);
  }
  return std::fclose(Out) == 0;
}
