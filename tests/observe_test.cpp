//===- tests/observe_test.cpp - Observability-plane tests ---------------------===//
//
// Covers the live observability plane: the metrics registry (push
// handles, pull collectors, histogram quantiles, text exposition), the
// Stats wire codec and its adversarial-input taxonomy (over both the
// loopback and the socket transport), and threshold alerting with
// hysteresis — including the acceptance-criterion test that drives a
// site's Bayes posterior across the classification bar and watches the
// built-in warn rule fire and un-fire only after the clear delay.
//
//===----------------------------------------------------------------------===//

#include "observe/AlertEngine.h"
#include "observe/MetricsRegistry.h"

#include "alloc/ConcurrentAllocator.h"
#include "alloc/DieHardHeap.h"
#include "diefast/DieFastHeap.h"
#include "inject/FaultInjector.h"
#include "exchange/PatchClient.h"
#include "exchange/PatchServer.h"
#include "exchange/SocketTransport.h"
#include "exchange/Transport.h"
#include "exchange/WireProtocol.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace exterminator;

//===----------------------------------------------------------------------===//
// MetricsRegistry primitives
//===----------------------------------------------------------------------===//

TEST(MetricsRegistry, CountersAndGaugesSnapshot) {
  MetricsRegistry Registry;
  MetricsRegistry::Counter Requests = Registry.counter("requests_total");
  MetricsRegistry::Gauge Depth = Registry.gauge("queue_depth");
  Requests.increment();
  Requests.add(4);
  Depth.set(7.5);

  const MetricsSnapshot Snap = Registry.snapshot();
  const MetricSample *R = Snap.find("requests_total");
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Value, 5.0);
  EXPECT_EQ(R->Kind, SampleKind::Counter);
  const MetricSample *D = Snap.find("queue_depth");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Value, 7.5);
  EXPECT_EQ(D->Kind, SampleKind::Gauge);
}

TEST(MetricsRegistry, SameNameAndLabelsShareOneCell) {
  MetricsRegistry Registry;
  MetricsRegistry::Counter A = Registry.counter("hits_total");
  MetricsRegistry::Counter B = Registry.counter("hits_total");
  MetricsRegistry::Counter Other =
      Registry.counter("hits_total", MetricsRegistry::label("peer", "S1"));
  A.increment();
  B.increment();
  Other.increment();

  const MetricsSnapshot Snap = Registry.snapshot();
  const MetricSample *Shared = Snap.find("hits_total", "");
  ASSERT_NE(Shared, nullptr);
  EXPECT_EQ(Shared->Value, 2.0); // A and B write the same cell
  const MetricSample *Labelled = Snap.find("hits_total", "peer=\"S1\"");
  ASSERT_NE(Labelled, nullptr);
  EXPECT_EQ(Labelled->Value, 1.0); // distinct labels, distinct cell
}

TEST(MetricsRegistry, DefaultHandlesAreNoOps) {
  MetricsRegistry::Counter C;
  MetricsRegistry::Gauge G;
  MetricsRegistry::Histogram H;
  EXPECT_FALSE(bool(C));
  EXPECT_FALSE(bool(G));
  EXPECT_FALSE(bool(H));
  // Must not crash — this is the un-instrumented fast path.
  C.increment();
  G.set(1.0);
  H.observe(0.5);
}

TEST(MetricsRegistry, HistogramBucketsSumCountAndQuantiles) {
  MetricsRegistry Registry;
  MetricsRegistry::Histogram Lat = Registry.histogram("op_seconds");
  // 100 observations spread over two buckets: 50 in (5e-5, 1e-4],
  // 50 in (1e-3, 2e-3].
  for (int I = 0; I < 50; ++I)
    Lat.observe(8e-5);
  for (int I = 0; I < 50; ++I)
    Lat.observe(1.5e-3);

  const MetricsSnapshot Snap = Registry.snapshot();
  const MetricSample *Count = Snap.find("op_seconds_count");
  ASSERT_NE(Count, nullptr);
  EXPECT_EQ(Count->Value, 100.0);
  const MetricSample *Sum = Snap.find("op_seconds_sum");
  ASSERT_NE(Sum, nullptr);
  EXPECT_NEAR(Sum->Value, 50 * 8e-5 + 50 * 1.5e-3, 1e-6);

  // Cumulative buckets: everything fits under 2e-3 and +Inf.
  const MetricSample *Below = Snap.find("op_seconds_bucket", "le=\"0.0001\"");
  ASSERT_NE(Below, nullptr);
  EXPECT_EQ(Below->Value, 50.0);
  const MetricSample *All = Snap.find("op_seconds_bucket", "le=\"+Inf\"");
  ASSERT_NE(All, nullptr);
  EXPECT_EQ(All->Value, 100.0);

  // p50 interpolates inside the first populated bucket, p99 inside the
  // second — both must land within their bucket's bounds.
  const MetricSample *P50 = Snap.find("op_seconds", "quantile=\"0.5\"");
  ASSERT_NE(P50, nullptr);
  EXPECT_GT(P50->Value, 5e-5);
  EXPECT_LE(P50->Value, 1e-4);
  const MetricSample *P99 = Snap.find("op_seconds", "quantile=\"0.99\"");
  ASSERT_NE(P99, nullptr);
  EXPECT_GT(P99->Value, 1e-3);
  EXPECT_LE(P99->Value, 2e-3);
}

TEST(MetricsRegistry, CollectorsRunAtSnapshotTime) {
  MetricsRegistry Registry;
  int Pulls = 0;
  Registry.addCollector([&Pulls](std::vector<MetricSample> &Out) {
    ++Pulls;
    MetricsRegistry::addGauge(Out, "pulled_value", {}, 42.0);
  });
  EXPECT_EQ(Pulls, 0); // registration does not pull
  const MetricsSnapshot Snap = Registry.snapshot();
  EXPECT_EQ(Pulls, 1);
  const MetricSample *S = Snap.find("pulled_value");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Value, 42.0);
}

TEST(MetricsRegistry, TextExpositionGrammar) {
  MetricsRegistry Registry;
  Registry.counter("xterm_things_total").add(3);
  Registry.gauge("xterm_level", MetricsRegistry::label("peer", "S1"))
      .set(0.25);

  const std::string Text = Registry.renderText();
  // One # TYPE line per distinct sample name, before its first sample.
  EXPECT_NE(Text.find("# TYPE xterm_things_total counter\n"
                      "xterm_things_total 3\n"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE xterm_level gauge\n"
                      "xterm_level{peer=\"S1\"} 0.25\n"),
            std::string::npos);
}

TEST(MetricsRegistry, LabelValueEscaping) {
  const std::string Pair =
      MetricsRegistry::label("path", "a\\b\"c\nd");
  EXPECT_EQ(Pair, "path=\"a\\\\b\\\"c\\nd\"");
}

TEST(MetricsRegistry, MaxValueAggregatesLabelledFamily) {
  MetricsRegistry Registry;
  Registry.gauge("lag", MetricsRegistry::label("peer", "A")).set(3);
  Registry.gauge("lag", MetricsRegistry::label("peer", "B")).set(9);
  Registry.gauge("lag", MetricsRegistry::label("peer", "C")).set(1);
  const MetricsSnapshot Snap = Registry.snapshot();
  const std::optional<double> Max = Snap.maxValue("lag");
  ASSERT_TRUE(Max.has_value());
  EXPECT_EQ(*Max, 9.0);
  EXPECT_FALSE(Snap.maxValue("absent").has_value());
}

TEST(MetricsRegistry, AllocatorAdapterExportsHeapStats) {
  MetricsRegistry Registry;
  DieHardHeap Heap;
  registerAllocatorMetrics(Registry, Heap, "diehard");

  void *P = Heap.allocate(64);
  ASSERT_NE(P, nullptr);
  Heap.deallocate(P);
  Heap.deallocate(P); // double free — must show up as a counter

  const MetricsSnapshot Snap = Registry.snapshot();
  const std::string Labels = MetricsRegistry::label("heap", "diehard");
  const MetricSample *Allocs =
      Snap.find("xterm_alloc_allocations_total", Labels);
  ASSERT_NE(Allocs, nullptr);
  EXPECT_EQ(Allocs->Value, 1.0);
  const MetricSample *Doubles =
      Snap.find("xterm_alloc_double_frees_total", Labels);
  ASSERT_NE(Doubles, nullptr);
  EXPECT_EQ(Doubles->Value, 1.0);
  const MetricSample *Bytes =
      Snap.find("xterm_alloc_bytes_requested_total", Labels);
  ASSERT_NE(Bytes, nullptr);
  EXPECT_EQ(Bytes->Value, 64.0);
}

TEST(MetricsRegistry, FrontEndAdapterExportsLockContention) {
  MetricsRegistry Registry;
  ConcurrentAllocatorConfig Cfg;
  Cfg.MagazineSize = 2;
  ConcurrentAllocator Alloc(Cfg);
  registerFrontEndMetrics(Registry, Alloc, "mt");

  // Nine allocations take five two-slot refills (no frees to apply yet);
  // the eighth buffered free reaches the 4 x MagazineSize bound, and the
  // flush applies the ninth.
  ConcurrentAllocator::ThreadCache &Cache = Alloc.threadCache();
  std::vector<void *> Ptrs;
  for (int I = 0; I < 9; ++I)
    Ptrs.push_back(Alloc.allocateFrom(Cache, 32));
  for (void *Ptr : Ptrs)
    Alloc.deallocate(Ptr);
  Alloc.flushCache(Cache);

  const MetricsSnapshot Snap = Registry.snapshot();
  const std::string Labels = MetricsRegistry::label("heap", "mt");
  const auto Value = [&](const char *Name, const std::string &L) {
    const MetricSample *S = Snap.find(Name, L);
    EXPECT_NE(S, nullptr) << Name << "{" << L << "}";
    if (S) {
      EXPECT_EQ(S->Kind, SampleKind::Counter) << Name;
    }
    return S ? S->Value : -1.0;
  };
  const auto At = [&](const char *Where) {
    return Labels + "," + MetricsRegistry::label("at", Where);
  };
  // Five refills, one bound apply, one flush.
  EXPECT_EQ(Value("xterm_alloc_lock_acquires_total", Labels), 7.0);
  EXPECT_EQ(Value("xterm_alloc_lock_acquires_total", Labels),
            double(Alloc.backendLockAcquires()));
  // One thread never waits.
  EXPECT_EQ(Value("xterm_alloc_lock_spun_total", Labels), 0.0);
  EXPECT_EQ(Value("xterm_alloc_lock_parked_total", Labels), 0.0);
  EXPECT_EQ(Value("xterm_alloc_frees_applied_total", At("refill")), 0.0);
  EXPECT_EQ(Value("xterm_alloc_frees_applied_total", At("bound")), 8.0);
  EXPECT_EQ(Value("xterm_alloc_frees_applied_total", At("flush")), 1.0);
  EXPECT_EQ(Alloc.stats().Deallocations, 9u);
}

//===----------------------------------------------------------------------===//
// Stats wire codec
//===----------------------------------------------------------------------===//

TEST(StatsCodec, RequestRoundTripAndRejects) {
  for (StatsFormat Format : {StatsFormat::Samples, StatsFormat::Text}) {
    StatsFormat Out;
    ASSERT_TRUE(decodeStatsRequest(encodeStatsRequest(Format), Out));
    EXPECT_EQ(Out, Format);
  }
  StatsFormat Out;
  EXPECT_FALSE(decodeStatsRequest({}, Out));        // empty
  EXPECT_FALSE(decodeStatsRequest({2}, Out));       // unknown format
  EXPECT_FALSE(decodeStatsRequest({0, 0}, Out));    // trailing byte
}

namespace {

StatsReply sampleReply() {
  StatsReply Reply;
  Reply.Instance = 0x1122334455667788ull;
  Reply.Epoch = 42;
  Reply.Format = StatsFormat::Samples;
  Reply.Samples.push_back(
      {"xterm_epoch", "", 42.0, SampleKind::Gauge});
  Reply.Samples.push_back({"xterm_site_posterior",
                           "kind=\"overflow\",site=\"0x00000abc\"", 1.5,
                           SampleKind::Gauge});
  Reply.Samples.push_back(
      {"xterm_ingest_summaries_total", "", 9.0, SampleKind::Counter});
  return Reply;
}

} // namespace

TEST(StatsCodec, SamplesReplyRoundTrip) {
  const StatsReply Reply = sampleReply();
  StatsReply Out;
  ASSERT_TRUE(decodeStatsReply(encodeStatsReply(Reply), Out));
  EXPECT_EQ(Out.Instance, Reply.Instance);
  EXPECT_EQ(Out.Epoch, Reply.Epoch);
  EXPECT_EQ(Out.Format, StatsFormat::Samples);
  ASSERT_EQ(Out.Samples.size(), Reply.Samples.size());
  for (size_t I = 0; I < Reply.Samples.size(); ++I) {
    EXPECT_EQ(Out.Samples[I].Name, Reply.Samples[I].Name);
    EXPECT_EQ(Out.Samples[I].Labels, Reply.Samples[I].Labels);
    EXPECT_EQ(Out.Samples[I].Value, Reply.Samples[I].Value);
    EXPECT_EQ(Out.Samples[I].Kind, Reply.Samples[I].Kind);
  }
}

TEST(StatsCodec, TextReplyRoundTrip) {
  StatsReply Reply;
  Reply.Instance = 7;
  Reply.Epoch = 3;
  Reply.Format = StatsFormat::Text;
  Reply.Text = "# TYPE xterm_epoch gauge\nxterm_epoch 3\n";
  StatsReply Out;
  ASSERT_TRUE(decodeStatsReply(encodeStatsReply(Reply), Out));
  EXPECT_EQ(Out.Format, StatsFormat::Text);
  EXPECT_EQ(Out.Text, Reply.Text);
  EXPECT_TRUE(Out.Samples.empty());
}

TEST(StatsCodec, ReplyRejectsHostilePayloads) {
  const std::vector<uint8_t> Good = encodeStatsReply(sampleReply());
  StatsReply Out;

  // Every truncation point must fail cleanly, never read past the end.
  for (size_t Cut = 0; Cut < Good.size(); ++Cut) {
    const std::vector<uint8_t> Truncated(Good.begin(), Good.begin() + Cut);
    EXPECT_FALSE(decodeStatsReply(Truncated, Out)) << "cut at " << Cut;
  }

  // Trailing garbage after a well-formed body.
  std::vector<uint8_t> Padded = Good;
  Padded.push_back(0);
  EXPECT_FALSE(decodeStatsReply(Padded, Out));

  // Unknown format byte (offset 16: after two u64s).
  std::vector<uint8_t> BadFormat = Good;
  ASSERT_GT(BadFormat.size(), 16u);
  BadFormat[16] = 2;
  EXPECT_FALSE(decodeStatsReply(BadFormat, Out));

  // Sample-count bomb: header + a varint count far beyond the payload.
  std::vector<uint8_t> Bomb(Good.begin(), Good.begin() + 17);
  for (int I = 0; I < 5; ++I)
    Bomb.push_back(0xff); // varint ~2^35 > MaxStatsSamples
  Bomb.push_back(0x01);
  EXPECT_FALSE(decodeStatsReply(Bomb, Out));
}

//===----------------------------------------------------------------------===//
// Server Stats dispatch (loopback)
//===----------------------------------------------------------------------===//

namespace {

/// One Stats exchange through \p Transport; asserts a well-formed
/// StatsReply comes back.
StatsReply exchangeStats(ClientTransport &Transport, StatsFormat Format) {
  const std::vector<std::vector<uint8_t>> Requests = {
      encodeFrame(MessageType::Stats, encodeStatsRequest(Format))};
  std::vector<std::vector<uint8_t>> Responses;
  EXPECT_TRUE(Transport.exchange(Requests, Responses));
  EXPECT_EQ(Responses.size(), 1u);
  Frame Reply;
  size_t Consumed = 0;
  EXPECT_EQ(decodeFrame(Responses[0].data(), Responses[0].size(), Reply,
                        Consumed),
            FrameError::None);
  EXPECT_EQ(Reply.Type, MessageType::StatsReply);
  StatsReply Stats;
  EXPECT_TRUE(decodeStatsReply(Reply.Payload, Stats));
  return Stats;
}

/// A summary whose single overflow trial was observed at 50% chance —
/// each one roughly doubles the site's Bayes factor (§5.1).
RunSummary corruptSummary(SiteId Site) {
  RunSummary Summary;
  Summary.Failed = true;
  Summary.CorruptionObserved = true;
  Summary.EndTime = 100;
  Summary.OverflowTrials.push_back(OverflowTrial{Site, 0.5, true, 4});
  return Summary;
}

/// Same site, same chance, but nothing observed — pulls the factor down.
RunSummary cleanSummary(SiteId Site) {
  RunSummary Summary;
  Summary.Failed = true;
  Summary.CorruptionObserved = true;
  Summary.EndTime = 100;
  Summary.OverflowTrials.push_back(OverflowTrial{Site, 0.5, false, 0});
  return Summary;
}

} // namespace

TEST(ServerStats, AnswersWithoutAttachedRegistry) {
  PatchServer Server;
  LoopbackTransport Transport(Server);
  PatchClient Client(Transport);
  ASSERT_TRUE(Client.queueSummary(corruptSummary(0xabc), 0));
  ASSERT_TRUE(Client.flush());

  const StatsReply Stats = exchangeStats(Transport, StatsFormat::Samples);
  EXPECT_NE(Stats.Instance, 0u);
  MetricsSnapshot Snap;
  Snap.Samples = Stats.Samples;
  const MetricSample *Summaries = Snap.find("xterm_ingest_summaries_total");
  ASSERT_NE(Summaries, nullptr);
  EXPECT_EQ(Summaries->Value, 1.0);
  // Per-site Bayes state is on the wire too.
  EXPECT_TRUE(Snap.maxValue("xterm_site_posterior").has_value());
  EXPECT_EQ(Server.stats().StatsServed, 1u);
}

TEST(ServerStats, TextFormatUsesAttachedRegistry) {
  MetricsRegistry Registry;
  Registry.counter("custom_probe_total").add(11);
  PatchServer Server;
  Server.attachMetrics(Registry);
  LoopbackTransport Transport(Server);

  const StatsReply Stats = exchangeStats(Transport, StatsFormat::Text);
  EXPECT_EQ(Stats.Format, StatsFormat::Text);
  // The reply carries the whole registry, not just the server's own
  // collector: instruments registered beside it appear too.
  EXPECT_NE(Stats.Text.find("custom_probe_total 11"), std::string::npos);
  EXPECT_NE(Stats.Text.find("xterm_ingest_summaries_total"),
            std::string::npos);
}

TEST(ServerStats, MalformedStatsRequestRejected) {
  PatchServer Server;
  std::vector<uint8_t> Response;
  // Stats frame with an out-of-range format byte.
  Server.handleFrame(encodeFrame(MessageType::Stats, {9}), Response);
  Frame Reply;
  size_t Consumed = 0;
  ASSERT_EQ(decodeFrame(Response.data(), Response.size(), Reply, Consumed),
            FrameError::None);
  EXPECT_EQ(Reply.Type, MessageType::ErrorReply);
  EXPECT_GE(Server.stats().FramesRejected, 1u);

  // Still alive.
  LoopbackTransport Transport(Server);
  const StatsReply Stats = exchangeStats(Transport, StatsFormat::Samples);
  EXPECT_NE(Stats.Instance, 0u);
}

//===----------------------------------------------------------------------===//
// Adversarial Stats frames over the socket transport
//===----------------------------------------------------------------------===//

namespace {

/// Connects to \p Ep, writes \p Bytes raw, half-closes, drains replies.
void sendRawBytes(const Endpoint &Ep, const std::vector<uint8_t> &Bytes) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Ep.Port);
  ASSERT_EQ(::inet_pton(AF_INET, Ep.Host.c_str(), &Addr.sin_addr), 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  if (!Bytes.empty()) {
    ASSERT_EQ(::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(Bytes.size()));
  }
  ::shutdown(Fd, SHUT_WR);
  uint8_t Drain[256];
  while (::recv(Fd, Drain, sizeof(Drain), 0) > 0) {
  }
  ::close(Fd);
}

} // namespace

TEST(ServerStats, HostileStatsFramesRejectedServerSurvives) {
  PatchServer Server;
  const std::vector<uint8_t> Good =
      encodeFrame(MessageType::Stats, encodeStatsRequest(StatsFormat::Text));

  // Loopback taxonomy first: truncated, future version, length bomb.
  std::vector<std::vector<uint8_t>> Hostile;
  Hostile.emplace_back(Good.begin(), Good.begin() + FrameHeaderBytes - 1);
  {
    std::vector<uint8_t> BadVersion = Good;
    BadVersion[4] = ProtocolVersion + 1;
    Hostile.push_back(std::move(BadVersion));
  }
  {
    std::vector<uint8_t> Oversized = Good;
    const uint32_t Huge = 0x7fffffff;
    std::memcpy(Oversized.data() + 6, &Huge, sizeof(Huge));
    Hostile.push_back(std::move(Oversized));
  }
  for (const std::vector<uint8_t> &Bytes : Hostile) {
    std::vector<uint8_t> Response;
    Server.handleFrame(Bytes, Response);
    Frame Reply;
    size_t Consumed = 0;
    ASSERT_EQ(decodeFrame(Response.data(), Response.size(), Reply,
                          Consumed),
              FrameError::None);
    EXPECT_EQ(Reply.Type, MessageType::ErrorReply);
  }

  // Same bytes over TCP: the front-end must shrug them off and still
  // serve a real scrape afterwards.
  SocketPatchServer Front(Server, /*Workers=*/1);
  Front.setReadTimeout(2000);
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("tcp:0", Ep));
  ASSERT_TRUE(Front.listen(Ep));
  ASSERT_TRUE(Front.start());
  for (const std::vector<uint8_t> &Bytes : Hostile)
    sendRawBytes(Front.endpoint(), Bytes);

  SocketClientTransport Transport(Front.endpoint());
  const StatsReply Stats = exchangeStats(Transport, StatsFormat::Text);
  EXPECT_NE(Stats.Text.find("xterm_frames_rejected_total"),
            std::string::npos);
  Front.stop();
}

//===----------------------------------------------------------------------===//
// Alert engine: thresholds and hysteresis
//===----------------------------------------------------------------------===//

namespace {

MetricsSnapshot gaugeSnapshot(const std::string &Name, double Value) {
  MetricsSnapshot Snap;
  Snap.Samples.push_back({Name, "", Value, SampleKind::Gauge});
  return Snap;
}

AlertRule warnAbove(const std::string &Metric, double Threshold,
                    uint64_t ClearDelay) {
  AlertRule Rule;
  Rule.Name = "test_rule";
  Rule.Metric = Metric;
  Rule.Cmp = AlertRule::Compare::GreaterOrEqual;
  Rule.Warn = Threshold;
  Rule.ClearDelayTicks = ClearDelay;
  return Rule;
}

} // namespace

TEST(AlertEngine, OscillatingMetricRaisesExactlyOneAlert) {
  AlertEngine Engine;
  Engine.addRule(warnAbove("flappy", 10.0, /*ClearDelay=*/3));

  // 21 ticks of oscillation around the threshold: above on even ticks
  // (including the last), below on odd.  Hysteresis must hold one
  // continuous Warning — the re-cross on every even tick resets the
  // pending de-escalation before the 3-tick delay ever elapses.
  for (uint64_t Tick = 0; Tick < 21; ++Tick)
    Engine.evaluate(gaugeSnapshot("flappy", Tick % 2 == 0 ? 15.0 : 5.0),
                    Tick);
  ASSERT_EQ(Engine.status().size(), 1u);
  const AlertStatus &S = Engine.status()[0];
  EXPECT_EQ(S.Severity, AlertSeverity::Warning);
  EXPECT_EQ(S.RaisedEvents, 1u);

  // Sustained recovery: stays Warning through the delay window, clears
  // once 3 full ticks below have elapsed, and never re-raises.
  uint64_t Tick = 21;
  for (; Tick < 24; ++Tick) {
    Engine.evaluate(gaugeSnapshot("flappy", 5.0), Tick);
    EXPECT_EQ(Engine.status()[0].Severity, AlertSeverity::Warning)
        << "cleared early at tick " << Tick;
  }
  Engine.evaluate(gaugeSnapshot("flappy", 5.0), Tick);
  EXPECT_EQ(Engine.status()[0].Severity, AlertSeverity::Clear);
  EXPECT_EQ(Engine.status()[0].RaisedEvents, 1u);
  EXPECT_TRUE(Engine.active().empty());
}

TEST(AlertEngine, EscalationIsImmediateDeescalationIsDelayed) {
  AlertEngine Engine;
  AlertRule Rule = warnAbove("load", 10.0, /*ClearDelay=*/2);
  Rule.Crit = 100.0;
  Engine.addRule(Rule);

  Engine.evaluate(gaugeSnapshot("load", 50.0), 0);
  EXPECT_EQ(Engine.status()[0].Severity, AlertSeverity::Warning);
  // Warning -> Critical needs no delay.
  Engine.evaluate(gaugeSnapshot("load", 500.0), 1);
  EXPECT_EQ(Engine.status()[0].Severity, AlertSeverity::Critical);
  // Critical -> Warning is a de-escalation: held until the delay runs.
  Engine.evaluate(gaugeSnapshot("load", 50.0), 2);
  EXPECT_EQ(Engine.status()[0].Severity, AlertSeverity::Critical);
  Engine.evaluate(gaugeSnapshot("load", 50.0), 3);
  Engine.evaluate(gaugeSnapshot("load", 50.0), 4);
  EXPECT_EQ(Engine.status()[0].Severity, AlertSeverity::Warning);
  // Only the initial Clear -> raised transition counted as an event.
  EXPECT_EQ(Engine.status()[0].RaisedEvents, 1u);
}

TEST(AlertEngine, AbsentMetricHoldsState) {
  AlertEngine Engine;
  Engine.addRule(warnAbove("sometimes", 10.0, /*ClearDelay=*/1));
  Engine.evaluate(gaugeSnapshot("sometimes", 20.0), 0);
  EXPECT_EQ(Engine.status()[0].Severity, AlertSeverity::Warning);
  // A scrape that lost the metric is not evidence of recovery.
  for (uint64_t Tick = 1; Tick < 10; ++Tick)
    Engine.evaluate(MetricsSnapshot(), Tick);
  EXPECT_EQ(Engine.status()[0].Severity, AlertSeverity::Warning);
}

TEST(AlertEngine, EveryTicksSkipsEvaluations) {
  AlertEngine Engine;
  AlertRule Rule = warnAbove("slow", 10.0, /*ClearDelay=*/0);
  Rule.EveryTicks = 5;
  Engine.addRule(Rule);
  Engine.evaluate(gaugeSnapshot("slow", 5.0), 0);
  EXPECT_EQ(Engine.status()[0].Severity, AlertSeverity::Clear);
  // Crossing at tick 2 is invisible — next due evaluation is tick 5.
  Engine.evaluate(gaugeSnapshot("slow", 50.0), 2);
  EXPECT_EQ(Engine.status()[0].Severity, AlertSeverity::Clear);
  Engine.evaluate(gaugeSnapshot("slow", 50.0), 5);
  EXPECT_EQ(Engine.status()[0].Severity, AlertSeverity::Warning);
}

//===----------------------------------------------------------------------===//
// Acceptance criterion: the posterior warn rule, end to end
//===----------------------------------------------------------------------===//

TEST(AlertEngine, BuiltinPosteriorRuleFiresAndUnfiresWithHysteresis) {
  PatchServer Server;
  LoopbackTransport Transport(Server);
  PatchClient Client(Transport);
  AlertEngine Engine;
  Engine.addBuiltinRules();

  const SiteId Site = 0xdead;
  auto EvaluateAt = [&](uint64_t Tick) {
    const StatsReply Stats = exchangeStats(Transport, StatsFormat::Samples);
    MetricsSnapshot Snap;
    Snap.Samples = Stats.Samples;
    Engine.evaluate(Snap, Tick);
  };
  auto PosteriorRule = [&]() -> const AlertStatus & {
    for (const AlertStatus &S : Engine.status())
      if (S.Rule.Name == "site_posterior_classified")
        return S;
    static AlertStatus Missing;
    return Missing;
  };

  // Drive the site across the §5.1 classification bar: each observed
  // 50%-chance trial roughly doubles the Bayes factor; with one
  // candidate site the threshold is log(4·1), so four corrupt runs put
  // the exported margin (logBF − threshold) above zero.
  uint64_t Tick = 0;
  for (int Run = 0; Run < 4; ++Run) {
    ASSERT_TRUE(Client.queueSummary(corruptSummary(Site), 0));
    ASSERT_TRUE(Client.flush());
  }
  EvaluateAt(Tick++);
  const AlertStatus &Fired = PosteriorRule();
  ASSERT_FALSE(Fired.Rule.Name.empty());
  EXPECT_EQ(Fired.Severity, AlertSeverity::Warning);
  EXPECT_GE(Fired.LastValue, 0.0);
  EXPECT_EQ(Fired.RaisedEvents, 1u);

  // Clean runs on the same site pull the factor back under the bar...
  for (int Run = 0; Run < 6; ++Run) {
    ASSERT_TRUE(Client.queueSummary(cleanSummary(Site), 0));
    ASSERT_TRUE(Client.flush());
  }
  // ...but the alert must hold through the clear delay, then un-fire.
  const uint64_t Delay = Fired.Rule.ClearDelayTicks;
  for (uint64_t Held = 0; Held < Delay; ++Held) {
    EvaluateAt(Tick++);
    EXPECT_EQ(PosteriorRule().Severity, AlertSeverity::Warning)
        << "cleared before the hysteresis delay elapsed";
  }
  EvaluateAt(Tick++);
  EXPECT_EQ(PosteriorRule().Severity, AlertSeverity::Clear);
  EXPECT_LT(PosteriorRule().LastValue, 0.0);
  EXPECT_EQ(PosteriorRule().RaisedEvents, 1u);
}

//===----------------------------------------------------------------------===//
// Hardware-fault observability (PR 9)
//===----------------------------------------------------------------------===//

TEST(MetricsRegistry, InjectorAdapterExportsHardwareCounters) {
  MetricsRegistry Registry;
  DieFastConfig Config;
  Config.Heap.Seed = 5;
  Config.Heap.InitialSlots = 16;
  DieFastHeap Heap(Config);
  FaultPlan Plan;
  Plan.Kind = FaultKind::BitFlip;
  Plan.TriggerAllocation = 20;
  Plan.PatternSeed = 42;
  FaultInjector Injector(Heap, Plan);
  Injector.attachHeap(&Heap.heap());
  registerInjectorMetrics(Registry, Injector, "diefast");

  std::vector<void *> Ptrs;
  for (int I = 0; I < 16; ++I)
    Ptrs.push_back(Injector.allocate(64));
  for (int I = 0; I < 16; I += 2)
    Injector.deallocate(Ptrs[I]);
  for (int I = 0; I < 24; ++I)
    Injector.deallocate(Injector.allocate(64));

  const MetricsSnapshot Snap = Registry.snapshot();
  const std::string Labels = MetricsRegistry::label("heap", "diefast");
  const MetricSample *Events =
      Snap.find("xterm_inject_hardware_events_total", Labels);
  ASSERT_NE(Events, nullptr);
  EXPECT_EQ(Events->Value, 1.0);
  const MetricSample *Bits =
      Snap.find("xterm_inject_bits_flipped_total", Labels);
  ASSERT_NE(Bits, nullptr);
  EXPECT_GE(Bits->Value, 1.0);
  const MetricSample *Software =
      Snap.find("xterm_inject_software_faults_total", Labels);
  ASSERT_NE(Software, nullptr);
  EXPECT_EQ(Software->Value, 0.0);
}

TEST(MetricsRegistry, RetirementAdapterExportsGauges) {
  MetricsRegistry Registry;
  DieHardHeap Heap;
  registerRetirementMetrics(Registry, Heap, "diehard");

  const std::string Labels = MetricsRegistry::label("heap", "diehard");
  MetricsSnapshot Snap = Registry.snapshot();
  ASSERT_NE(Snap.find("xterm_retired_pages", Labels), nullptr);
  EXPECT_EQ(Snap.find("xterm_retired_pages", Labels)->Value, 0.0);

  void *Ptr = Heap.allocate(64);
  ASSERT_NE(Ptr, nullptr);
  Heap.retirePage(reinterpret_cast<uintptr_t>(Ptr));

  Snap = Registry.snapshot();
  EXPECT_EQ(Snap.find("xterm_retired_pages", Labels)->Value, 1.0);
  EXPECT_GE(Snap.find("xterm_retired_slots", Labels)->Value, 1.0);
}

TEST(AlertEngine, BuiltinHardwareRulePagesImmediately) {
  AlertEngine Engine;
  Engine.addBuiltinRules();

  auto HardwareRule = [&]() -> const AlertStatus & {
    for (const AlertStatus &S : Engine.status())
      if (S.Rule.Name == "hardware_fault_detected")
        return S;
    static AlertStatus Missing;
    return Missing;
  };

  MetricsSnapshot Clean;
  MetricsRegistry::addCounter(Clean.Samples, "xterm_hardware_faults_total", "",
                              0.0);
  Engine.evaluate(Clean, 0);
  ASSERT_FALSE(HardwareRule().Rule.Name.empty());
  EXPECT_EQ(HardwareRule().Severity, AlertSeverity::Clear);

  // One confirmed hardware fault anywhere in the fleet is a page, not a
  // warning: software patches cannot correct a failing DIMM.
  MetricsSnapshot Faulty;
  MetricsRegistry::addCounter(Faulty.Samples, "xterm_hardware_faults_total",
                              "", 1.0);
  Engine.evaluate(Faulty, 1);
  EXPECT_EQ(HardwareRule().Severity, AlertSeverity::Critical);
  EXPECT_EQ(HardwareRule().RaisedEvents, 1u);
}
