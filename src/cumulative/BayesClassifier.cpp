//===- cumulative/BayesClassifier.cpp - Hypothesis testing ------------------===//

#include "cumulative/BayesClassifier.h"

#include "support/Serializer.h"
#include "support/Statistics.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

using namespace exterminator;

// Simpson quadrature intervals for the θ integral; the integrand is a
// polynomial of degree = #trials, so a few hundred nodes are ample.
static constexpr int NumIntervals = 512;

static double clampProbability(double P) {
  // Guard against trials computed as exactly 0 or 1, which would make a
  // single contrary observation produce -inf and poison the product.
  const double Epsilon = 1e-12;
  if (P < Epsilon)
    return Epsilon;
  if (P > 1.0 - Epsilon)
    return 1.0 - Epsilon;
  return P;
}

/// Composite Simpson over θ ∈ [0, 1] of exp(NodeLog(I)), the integrand's
/// log at node I, accumulated with log-sum-exp so long trial sequences
/// cannot underflow.  Both evaluation forms go through this one loop, so
/// they perform the same additions in the same order.
template <typename NodeLogFn>
static double simpsonLogIntegral(NodeLogFn NodeLog) {
  const double H = 1.0 / NumIntervals;
  // The log Simpson weights (1 at the ends, 4 at odd nodes, 2 at even
  // ones), computed once instead of once per node.
  const double LogEndWeight = std::log(1.0);
  const double LogOddWeight = std::log(4.0);
  const double LogEvenWeight = std::log(2.0);
  double LogAccum = -std::numeric_limits<double>::infinity();
  for (int I = 0; I <= NumIntervals; ++I) {
    const double LogWeight = (I == 0 || I == NumIntervals) ? LogEndWeight
                             : (I % 2 == 1)                ? LogOddWeight
                                                           : LogEvenWeight;
    LogAccum = logAdd(LogAccum, NodeLog(I) + LogWeight);
  }
  return LogAccum + std::log(H / 3.0);
}

double
BayesClassifier::logLikelihoodH0(const std::vector<BayesTrial> &Trials) {
  double LogSum = 0.0;
  for (const BayesTrial &Trial : Trials) {
    const double X = clampProbability(Trial.Probability);
    LogSum += std::log(Trial.Observed ? X : 1.0 - X);
  }
  return LogSum;
}

/// log Π_i P(Y_i | θ, X_i) at a fixed θ.
static double logLikelihoodAtTheta(const std::vector<BayesTrial> &Trials,
                                   double Theta) {
  double LogSum = 0.0;
  for (const BayesTrial &Trial : Trials) {
    const double X = clampProbability(Trial.Probability);
    const double PYes = clampProbability((1.0 - Theta) * X + Theta);
    LogSum += std::log(Trial.Observed ? PYes : 1.0 - PYes);
  }
  return LogSum;
}

double
BayesClassifier::logLikelihoodH1(const std::vector<BayesTrial> &Trials) {
  const double H = 1.0 / NumIntervals;
  return simpsonLogIntegral(
      [&](int I) { return logLikelihoodAtTheta(Trials, I * H); });
}

double
BayesClassifier::logBayesFactor(const std::vector<BayesTrial> &Trials) {
  return logLikelihoodH1(Trials) - logLikelihoodH0(Trials);
}

double BayesClassifier::logThreshold(size_t NumSites) const {
  assert(NumSites > 0 && "need at least one candidate site");
  // P(H1) = 1/(cN), P(H0) = 1 − P(H1).
  const double PH1 = 1.0 / (PriorC * static_cast<double>(NumSites));
  return std::log((1.0 - PH1) / PH1);
}

bool BayesClassifier::isErrorSource(const std::vector<BayesTrial> &Trials,
                                    size_t NumSites) const {
  if (Trials.empty())
    return false;
  return logBayesFactor(Trials) > logThreshold(NumSites);
}

//===----------------------------------------------------------------------===//
// BayesAccumulator
//===----------------------------------------------------------------------===//

BayesAccumulator::BayesAccumulator() : NodeLogSums(NumIntervals + 1, 0.0) {
  // Every empty accumulator has the same integral: derive it once, not
  // once per new site (which a restore or the next trial re-derives
  // anyway).
  static const double EmptyLogH1 =
      simpsonLogIntegral([](int) { return 0.0; });
  LogH1 = EmptyLogH1;
}

BayesAccumulator::BayesAccumulator(const std::vector<BayesTrial> &Trials)
    : NodeLogSums(NumIntervals + 1, 0.0) {
  for (const BayesTrial &Trial : Trials)
    foldTrial(Trial);
  refresh();
}

void BayesAccumulator::addTrial(const BayesTrial &Trial) {
  foldTrial(Trial);
  refresh();
}

void BayesAccumulator::foldTrial(const BayesTrial &Trial) {
  ++NumTrials;
  const double X = clampProbability(Trial.Probability);
  // Exactly logLikelihoodH0's per-trial term, folded in arrival order so
  // the running sum matches the batch recompute bit for bit.
  LogH0 += std::log(Trial.Observed ? X : 1.0 - X);
  // And logLikelihoodAtTheta's per-trial term at every quadrature node.
  const double H = 1.0 / NumIntervals;
  for (int I = 0; I <= NumIntervals; ++I) {
    const double Theta = I * H;
    const double PYes = clampProbability((1.0 - Theta) * X + Theta);
    NodeLogSums[I] += std::log(Trial.Observed ? PYes : 1.0 - PYes);
  }
}

void BayesAccumulator::refresh() {
  // The batch logLikelihoodH1 integral with the per-node trial sums
  // already in hand.
  LogH1 = simpsonLogIntegral([this](int I) { return NodeLogSums[I]; });
}

void BayesAccumulator::serialize(ByteWriter &Writer) const {
  Writer.writeVarU64(NumTrials);
  Writer.writeVarU64(NodeLogSums.size());
  Writer.writeF64(LogH0);
  for (double Sum : NodeLogSums)
    Writer.writeF64(Sum);
}

bool BayesAccumulator::deserialize(ByteReader &Reader) {
  const uint64_t Trials = Reader.readVarU64();
  const uint64_t Nodes = Reader.readVarU64();
  // A node-count mismatch means the state was written by a build with a
  // different quadrature resolution; its sums are not comparable.
  if (Reader.failed() || Nodes != uint64_t(NumIntervals) + 1)
    return false;
  const double H0 = Reader.readF64();
  std::vector<double> Sums(NumIntervals + 1, 0.0);
  for (double &Sum : Sums)
    Sum = Reader.readF64();
  if (Reader.failed())
    return false;
  NumTrials = Trials;
  LogH0 = H0;
  NodeLogSums = std::move(Sums);
  refresh();
  return true;
}
