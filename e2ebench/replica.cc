#include "replica.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "daemon/config.h"
#include "daemon/daemon.h"
#include "daemons.h"
#include "dist/codec.h"
#include "dist/reliable_channel.h"
#include "dist/sequencer.h"
#include "dist/simulation.h"
#include "net/event_loop.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "proc.h"
#include "snoop/detector.h"
#include "snoop/parallel_detector.h"
#include "snoop/parser.h"
#include "snoop/reference_detector.h"
#include "timebase/timebase.h"
#include "util/alloc_counter.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace e2ebench {
namespace {

using sentineld::Frame;
using sentineld::StrCat;
using sentineld::TracePhase;
using sentineld::TracePhaseName;

// --- Spans -----------------------------------------------------------------

/// Span names. Where a TracePhase covers the call, its name is used.
enum Name : uint8_t {
  kRpc,             // SiteDaemon::HandleLine("INJECT ...")
  kRaise,           // Timebase::StampLocal + Event::MakePrimitive
  kFrame,           // ReliableLink::Send
  kNetSend,         // SocketTransport::SendFrame (encodes inside)
  kNetRecv,         // EventLoop::PollOnce that dispatched (decodes inside)
  kWait,            // PollOnce that found nothing while the thread idled
  kChannelDeliver,  // detector ReliableLink::HandleFrame (DATA)
  kLinkAck,         // injector ReliableLink::HandleFrame (ACK)
  kOffer,           // delivery callback: Sequencer::Offer
  kAdvance,         // heartbeat: Sequencer::AdvanceTo
  kSequence,        // Sequencer release callback
  kClock,           // DetectorEngine::AdvanceClockTo
  kFeed,            // DetectorEngine::Feed
  kDetect,          // rule callback
  kTimer,           // Simulation::Run (retransmit and heartbeat timers)
  kFlush,           // end of stream: Sequencer::Flush
  kEncode,          // EncodeDataFrame/EncodeAckFrame, after the run
  kDecode,          // DecodeFrame, after the run
  kNumNames
};

const char* SpanName(uint8_t name) {
  switch (name) {
    case kRpc: return "rpc_inject";
    case kRaise: return TracePhaseName(TracePhase::kRaise);
    case kFrame: return TracePhaseName(TracePhase::kFrame);
    case kNetSend: return "net_send";
    case kNetRecv: return "net_recv";
    case kWait: return "wait";
    case kChannelDeliver: return TracePhaseName(TracePhase::kChannelDeliver);
    case kLinkAck: return "link_ack";
    case kOffer: return TracePhaseName(TracePhase::kOffer);
    case kAdvance: return "advance";
    case kSequence: return TracePhaseName(TracePhase::kSequence);
    case kClock: return "clock";
    case kFeed: return TracePhaseName(TracePhase::kFeed);
    case kDetect: return TracePhaseName(TracePhase::kDetect);
    case kTimer: return "timer";
    case kFlush: return "flush";
    case kEncode: return "codec_encode";
    case kDecode: return "codec_decode";
  }
  return "?";
}

constexpr uint32_t kNoEvent = ~uint32_t{0};

struct Span {
  int64_t start = 0;
  int64_t end = 0;
  uint64_t allocs_start = 0;
  uint64_t allocs_end = 0;
  int32_t parent = -1;
  uint32_t event = kNoEvent;
  uint8_t name = 0;
};

uint64_t Allocs() { return sentineld::CurrentThreadAllocCounts().allocs; }

/// In-memory span journal of one thread; written out after the run.
class Recorder {
 public:
  explicit Recorder(size_t capacity) { spans_.reserve(capacity); }

  int32_t Begin(uint8_t name, uint32_t event) {
    const int32_t index = static_cast<int32_t>(spans_.size());
    Span span;
    span.name = name;
    span.event = event;
    span.parent = open_;
    span.allocs_start = Allocs();
    span.start = NowNs();
    spans_.push_back(span);
    open_ = index;
    return index;
  }

  void End(int32_t index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end = NowNs();
    span.allocs_end = Allocs();
    open_ = span.parent;
  }

  /// Ends an empty poll as idle time, folding it into the wait span
  /// right before it when nothing happened in between.
  void EndAsWait(int32_t index) {
    End(index);
    Span& span = spans_[static_cast<size_t>(index)];
    span.name = kWait;
    if (index > 0 && spans_[static_cast<size_t>(index) - 1].name == kWait &&
        spans_[static_cast<size_t>(index) - 1].parent == span.parent) {
      spans_[static_cast<size_t>(index) - 1].end = span.end;
      spans_[static_cast<size_t>(index) - 1].allocs_end = span.allocs_end;
      spans_.pop_back();
    }
  }

  const Span& at(int32_t index) const {
    return spans_[static_cast<size_t>(index)];
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// RAII span; a null recorder (the untraced baseline) records nothing.
class Scope {
 public:
  Scope(Recorder* recorder, uint8_t name, uint32_t event = kNoEvent)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, event) : -1) {}
  ~Scope() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t index() const { return index_; }

 private:
  Recorder* recorder_;
  int32_t index_;
};

// --- The pipeline ----------------------------------------------------------

/// FrameConduit in front of a SocketTransport: times SendFrame and keeps
/// the frames for the codec pass.
class TimedConduit : public sentineld::FrameConduit {
 public:
  TimedConduit(sentineld::net::SocketTransport* inner,
               std::function<uint32_t(const Frame&)> event_of,
               std::function<void(const Frame&, int32_t)> on_sent)
      : inner_(inner), event_of_(std::move(event_of)),
        on_sent_(std::move(on_sent)) {}
  void set_recorder(Recorder* recorder) { recorder_ = recorder; }

  void SendFrame(SiteId from, SiteId to, const Frame& frame) override {
    int32_t index = -1;
    {
      Scope scope(recorder_, kNetSend, event_of_(frame));
      inner_->SendFrame(from, to, frame);
      index = scope.index();
    }
    if (recorder_ != nullptr) on_sent_(frame, index);
  }

 private:
  sentineld::net::SocketTransport* inner_;
  std::function<uint32_t(const Frame&)> event_of_;
  std::function<void(const Frame&, int32_t)> on_sent_;
  Recorder* recorder_ = nullptr;
};

struct Injector {
  sentineld::Simulation sim;
  std::unique_ptr<sentineld::net::SocketTransport> transport;
  std::unique_ptr<TimedConduit> conduit;
  std::unique_ptr<sentineld::ReliableLink> link;
  uint64_t sent = 0;
  uint64_t delivered = 0;  ///< at the detector
};

/// One site pipeline: injector halves (fan-in workloads) and the
/// detector half, all on one EventLoop pumped by this thread.
class Replica {
 public:
  Replica(const Plan& plan, Recorder* recorder, bool embedded_catalogue);
  ~Replica();

  /// Replays the stream; returns the wall time of the replay in ns.
  int64_t Replay(bool paced);

  /// After Replay (traced): FLUSH + timed DETECTIONS on the embedded
  /// daemon, in ms; also checks its detection count.
  double FetchEmbedded(uint64_t expected_total, std::string* problem);

  uint64_t Check(const std::map<std::string, std::vector<std::string>>& want,
                 std::string* problem) const;

  /// Per-event journey waits (traced runs): frame on the wire until its
  /// delivery starts, and Sequencer hold from offer to release.
  std::vector<double> WireWaitsUs() const;
  std::vector<double> SeqHoldsMs() const;

  /// Times encode and decode of every frame the run sent, as spans.
  void CodecPass();

 private:
  uint32_t EventOf(const EventPtr& event) const;
  uint32_t FrameEvent(const Frame& frame) const;
  void OnSent(const Frame& frame, int32_t span);
  void OnDelivered(const EventPtr& event);
  void OnReleased(const EventPtr& event);
  void Heartbeat();
  /// INJECT, stamp and send (or offer, without a network) event k.
  void Inject(size_t k);
  void SetRecorder(Recorder* recorder);
  /// One turn of the daemon's reactor without blocking: due timers, then
  /// a nonblocking poll. `idle` marks a turn the thread had nothing else
  /// to do, so an empty poll counts as waiting.
  void Service(bool idle);

  const Plan& plan_;
  Recorder* rec_;
  const bool fanin_;
  sentineld::EventTypeRegistry registry_;
  std::vector<sentineld::EventTypeId> type_ids_;
  std::unique_ptr<sentineld::Timebase> timebase_;
  std::unordered_map<int64_t, uint32_t> event_by_tick_;
  std::vector<std::string> lines_;

  sentineld::net::EventLoop loop_;
  sentineld::Simulation det_sim_;
  std::unique_ptr<sentineld::net::SocketTransport> det_transport_;
  std::unique_ptr<TimedConduit> det_conduit_;
  std::map<SiteId, std::unique_ptr<sentineld::ReliableLink>> det_links_;
  std::map<SiteId, std::unique_ptr<Injector>> injectors_;
  std::unique_ptr<sentineld::Sequencer> sequencer_;
  std::unique_ptr<sentineld::DetectorEngine> engine_;
  std::unique_ptr<sentineld::daemon::SiteDaemon> embedded_;

  std::vector<std::pair<size_t, EventPtr>> detections_;  // (rule, event)
  std::vector<EventPtr> released_;
  sentineld::LocalTicks max_anchor_seen_ = INT64_MIN;
  sentineld::LocalTicks detector_clock_ = 0;
  uint64_t offered_ = 0;
  int64_t epoch_ = 0;

  // Journey timestamps per event (traced runs).
  std::vector<int64_t> wire_sent_;
  std::vector<int64_t> wire_recv_;
  std::vector<int64_t> offered_at_;
  std::vector<int64_t> released_at_;
  std::vector<Frame> frames_;
};

Replica::Replica(const Plan& plan, Recorder* recorder, bool embedded_catalogue)
    : plan_(plan),
      rec_(recorder),
      fanin_(plan.workload != Workload::kCatalogueWide) {
  const sentineld::TimebaseConfig tb = BenchTimebase();
  RegisterTypes(plan, registry_);
  for (const std::string& name : plan.type_names) {
    type_ids_.push_back(*registry_.Lookup(name));
  }
  auto timebase = sentineld::MakeTimebase(
      sentineld::TimebaseKind::kApproxGlobal, 3, tb);
  CHECK_OK(timebase);
  timebase_ = std::move(*timebase);
  const size_t n = plan.events.size();
  for (size_t i = 0; i < n; ++i) {
    event_by_tick_[plan.events[i].tick] = static_cast<uint32_t>(i);
    lines_.push_back(StrCat("INJECT ", plan.type_names[plan.events[i].type],
                            " ", plan.events[i].tick));
  }
  if (rec_ != nullptr) {
    wire_sent_.assign(n, 0);
    wire_recv_.assign(n, 0);
    offered_at_.assign(n, 0);
    released_at_.assign(n, 0);
    frames_.reserve(4 * n + 1024);
  }

  // The RPC layer: a detector-role daemon embedded in this process,
  // driven through HandleLine (its reactor never runs).
  sentineld::daemon::DaemonConfig dc;
  dc.site = kDetectorSite;
  dc.role = sentineld::daemon::SiteRole::kDetector;
  dc.detector_site = kDetectorSite;
  dc.listen = "127.0.0.1:0";
  dc.rpc_listen = "127.0.0.1:0";
  dc.timebase = tb;
  dc.channel.enabled = true;
  dc.window_ticks = plan.window_ticks;
  embedded_ = std::make_unique<sentineld::daemon::SiteDaemon>(dc);
  CHECK_OK(embedded_->Start());
  for (const std::string& name : plan.type_names) {
    CHECK(embedded_->HandleLine(StrCat("REGTYPE ", name)).starts_with("OK"));
  }
  if (embedded_catalogue) {
    for (const PlannedRule& rule : plan.rules) {
      CHECK(embedded_->HandleLine(StrCat("DEFRULE ", rule.name, " ", rule.expr))
                .starts_with("OK"));
    }
  }

  // Detector half, as SiteDaemon::Start builds it.
  sentineld::ReliableChannelConfig channel;
  channel.enabled = true;
  sentineld::Detector::Options options;
  options.host_site = kDetectorSite;
  options.timebase = tb;
  options.timebase_kind = sentineld::TimebaseKind::kApproxGlobal;
  engine_ = sentineld::MakeDetectorEngine(&registry_, options);
  sentineld::ParserOptions parser_options;
  parser_options.auto_register = true;
  parser_options.timebase = tb;
  for (size_t r = 0; r < plan.rules.size(); ++r) {
    auto expr = sentineld::ParseExpr(plan.rules[r].expr, registry_,
                                     parser_options);
    CHECK_OK(expr);
    CHECK_OK(engine_->AddRule(
        plan.rules[r].name, *expr, [this, r](const EventPtr& event) {
          Scope scope(rec_, kDetect);
          detections_.emplace_back(r, event);
        }));
  }
  sequencer_ = std::make_unique<sentineld::Sequencer>(
      plan.window_ticks, [this](const EventPtr& event) { OnReleased(event); });
  if (!fanin_) return;

  sentineld::net::TransportConfig tc;
  tc.self = kDetectorSite;
  tc.listen = "127.0.0.1:0";
  det_transport_ = std::make_unique<sentineld::net::SocketTransport>(
      &det_sim_, &loop_, tc);
  CHECK_OK(det_transport_->Start());
  auto event_of = [this](const Frame& f) { return FrameEvent(f); };
  auto on_sent = [this](const Frame& f, int32_t span) { OnSent(f, span); };
  det_conduit_ = std::make_unique<TimedConduit>(det_transport_.get(),
                                                event_of, on_sent);
  det_conduit_->set_recorder(rec_);
  det_transport_->set_on_frame([this](SiteId peer, const Frame& frame) {
    Scope scope(rec_, kChannelDeliver, FrameEvent(frame));
    if (rec_ != nullptr && frame.kind == Frame::Kind::kData) {
      const uint32_t id = FrameEvent(frame);
      if (id != kNoEvent && wire_recv_[id] == 0) {
        wire_recv_[id] = rec_->at(scope.index()).start;
      }
    }
    det_links_.at(peer)->HandleFrame(frame);
  });
  for (SiteId site : plan.daemon_sites) {
    det_links_[site] = std::make_unique<sentineld::ReliableLink>(
        &det_sim_, det_conduit_.get(), site, kDetectorSite, channel,
        [this](const EventPtr& event) { OnDelivered(event); });
    auto inj = std::make_unique<Injector>();
    sentineld::net::TransportConfig itc;
    itc.self = site;
    itc.peers[kDetectorSite] = det_transport_->bound_endpoint();
    inj->transport = std::make_unique<sentineld::net::SocketTransport>(
        &inj->sim, &loop_, itc);
    CHECK_OK(inj->transport->Start());
    inj->conduit = std::make_unique<TimedConduit>(inj->transport.get(),
                                                  event_of, on_sent);
    inj->conduit->set_recorder(rec_);
    inj->link = std::make_unique<sentineld::ReliableLink>(
        &inj->sim, inj->conduit.get(), site, kDetectorSite, channel,
        [](const EventPtr&) {});
    Injector* raw = inj.get();
    inj->transport->set_on_frame([this, raw](SiteId, const Frame& frame) {
      Scope scope(rec_, kLinkAck);
      raw->link->HandleFrame(frame);
    });
    injectors_[site] = std::move(inj);
  }
}

Replica::~Replica() {
  for (auto& [site, inj] : injectors_) inj->transport->Shutdown();
  if (det_transport_ != nullptr) det_transport_->Shutdown();
}

uint32_t Replica::EventOf(const EventPtr& event) const {
  const auto it = event_by_tick_.find(event->timestamp().stamps().front().local);
  return it == event_by_tick_.end() ? kNoEvent : it->second;
}

uint32_t Replica::FrameEvent(const Frame& frame) const {
  return frame.kind == Frame::Kind::kData && frame.event != nullptr
             ? EventOf(frame.event)
             : kNoEvent;
}

void Replica::OnSent(const Frame& frame, int32_t span) {
  if (frames_.size() < frames_.capacity()) frames_.push_back(frame);
  const uint32_t id = FrameEvent(frame);
  if (id != kNoEvent && wire_sent_[id] == 0) wire_sent_[id] = rec_->at(span).end;
}

void Replica::OnDelivered(const EventPtr& event) {
  const uint32_t id = EventOf(event);
  Scope scope(rec_, kOffer, id);
  if (rec_ != nullptr && id != kNoEvent) {
    offered_at_[id] = rec_->at(scope.index()).start;
  }
  max_anchor_seen_ = std::max(max_anchor_seen_,
                              sentineld::MinAnchorTick(event->timestamp()));
  if (fanin_) ++injectors_.at(event->PrimarySite())->delivered;
  ++offered_;
  sequencer_->Offer(event);
}

void Replica::OnReleased(const EventPtr& event) {
  const uint32_t id = EventOf(event);
  Scope scope(rec_, kSequence, id);
  if (rec_ != nullptr && id != kNoEvent) {
    released_at_[id] = rec_->at(scope.index()).start;
  }
  released_.push_back(event);
  const sentineld::LocalTicks tick =
      sentineld::MinAnchorTick(event->timestamp());
  if (tick > detector_clock_) {
    Scope clock(rec_, kClock, id);
    detector_clock_ = tick;
    engine_->AdvanceClockTo(tick);
  }
  Scope feed(rec_, kFeed, id);
  engine_->Feed(event);
}

void Replica::Heartbeat() {
  {
    Scope scope(rec_, kAdvance);
    if (max_anchor_seen_ != INT64_MIN) sequencer_->AdvanceTo(max_anchor_seen_);
  }
  det_sim_.After(kHeartbeatMs * 1'000'000, [this] { Heartbeat(); });
}

void Replica::Service(bool idle) {
  const int64_t elapsed = NowNs() - epoch_;
  auto pump = [&](sentineld::Simulation& sim) {
    if (sim.next_due() <= elapsed) {
      Scope scope(rec_, kTimer);
      sim.Run(elapsed);
    }
    sim.AdvanceTo(elapsed);
  };
  pump(det_sim_);
  for (auto& [site, inj] : injectors_) pump(inj->sim);
  if (!fanin_) return;
  const int32_t index = rec_ != nullptr ? rec_->Begin(kNetRecv, kNoEvent) : -1;
  const int dispatched = loop_.PollOnce(0);
  if (rec_ == nullptr) return;
  if (dispatched == 0 && idle) {
    rec_->EndAsWait(index);
  } else {
    rec_->End(index);
  }
}

void Replica::Inject(size_t k) {
  const PlannedEvent& e = plan_.events[k];
  const uint32_t id = static_cast<uint32_t>(k);
  {
    Scope scope(rec_, kRpc, id);
    embedded_->HandleLine(lines_[k]);
  }
  EventPtr event;
  {
    Scope scope(rec_, kRaise, id);
    event = sentineld::Event::MakePrimitive(
        type_ids_[e.type], timebase_->StampLocal(e.site, e.tick));
  }
  if (fanin_) {
    Injector& inj = *injectors_.at(e.site);
    Scope scope(rec_, kFrame, id);
    inj.link->Send(event);
    ++inj.sent;
  } else {
    OnDelivered(event);
  }
}

void Replica::SetRecorder(Recorder* recorder) {
  rec_ = recorder;
  if (det_conduit_ != nullptr) det_conduit_->set_recorder(recorder);
  for (auto& [site, inj] : injectors_) inj->conduit->set_recorder(recorder);
}

int64_t Replica::Replay(bool paced) {
  const size_t n = plan_.events.size();
  epoch_ = NowNs();
  det_sim_.After(kHeartbeatMs * 1'000'000, [this] { Heartbeat(); });
  // Arm untraced, as the daemons are armed during set-up: the
  // initiators reach the Sequencer before the stream starts.
  Recorder* recorder = rec_;
  SetRecorder(nullptr);
  for (size_t k = 0; k < plan_.armed_events; ++k) Inject(k);
  while (offered_ < plan_.armed_events) Service(/*idle=*/true);
  SetRecorder(recorder);

  const int64_t start = NowNs();
  for (size_t k = plan_.armed_events; k < n; ++k) {
    const PlannedEvent& e = plan_.events[k];
    if (paced) {
      while (NowNs() < start + e.tick * 1000) Service(/*idle=*/true);
    } else if (fanin_) {
      // Flat out, with the closed loop's bound on frames in flight (an
      // open-loop plan replayed unpaced borrows the same bound).
      const uint64_t window =
          static_cast<uint64_t>(plan_.window > 0 ? plan_.window : 16);
      const Injector& inj = *injectors_.at(e.site);
      while (inj.sent - inj.delivered >= window) {
        Service(/*idle=*/true);
      }
    }
    Inject(k);
    Service(/*idle=*/false);
  }
  while (offered_ < n) Service(/*idle=*/true);
  {
    Scope scope(rec_, kFlush);
    sequencer_->Flush();
  }
  return NowNs() - start;
}

double Replica::FetchEmbedded(uint64_t expected_total, std::string* problem) {
  embedded_->HandleLine("FLUSH");
  const int64_t t0 = NowNs();
  const std::string reply = embedded_->HandleLine("DETECTIONS");
  const double ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (!reply.starts_with(StrCat("OK ", expected_total, " ")) &&
      reply != StrCat("OK ", expected_total)) {
    *problem = "embedded daemon: wrong detection count";
  }
  return ms;
}

uint64_t Replica::Check(
    const std::map<std::string, std::vector<std::string>>& want,
    std::string* problem) const {
  std::map<std::string, std::vector<EventPtr>> fetched;
  for (const auto& [rule, event] : detections_) {
    fetched[plan_.rules[rule].name].push_back(event);
  }
  uint64_t mismatches = CountMismatches(want, fetched, problem);
  if (released_.size() != plan_.events.size()) {
    ++mismatches;
    if (problem->empty()) *problem = "replica did not release every event";
  }
  return mismatches;
}

std::vector<double> Replica::WireWaitsUs() const {
  std::vector<double> out;
  for (size_t i = 0; i < wire_sent_.size(); ++i) {
    if (wire_sent_[i] != 0 && wire_recv_[i] != 0) {
      out.push_back(static_cast<double>(wire_recv_[i] - wire_sent_[i]) / 1e3);
    }
  }
  return out;
}

std::vector<double> Replica::SeqHoldsMs() const {
  std::vector<double> out;
  for (size_t i = 0; i < offered_at_.size(); ++i) {
    if (offered_at_[i] != 0 && released_at_[i] != 0) {
      out.push_back(static_cast<double>(released_at_[i] - offered_at_[i]) /
                    1e6);
    }
  }
  return out;
}

void Replica::CodecPass() {
  for (const Frame& frame : frames_) {
    const uint32_t id = FrameEvent(frame);
    std::string bytes;
    {
      Scope scope(rec_, kEncode, id);
      switch (frame.kind) {
        case Frame::Kind::kData:
          bytes = sentineld::EncodeDataFrame(frame.sender, frame.seq,
                                             frame.event);
          break;
        case Frame::Kind::kAck:
          bytes = sentineld::EncodeAckFrame(frame.cum_ack, frame.seq);
          break;
        case Frame::Kind::kHello:
          bytes = sentineld::EncodeHelloFrame(frame.sender, frame.flags,
                                              frame.seq, frame.cum_ack);
          break;
      }
    }
    Scope scope(rec_, kDecode, id);
    CHECK_OK(sentineld::DecodeFrame(bytes));
  }
}

struct LayerTotals {
  double self_ns[kNumNames] = {};
  double self_allocs[kNumNames] = {};
};

LayerTotals Totals(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  std::vector<uint64_t> child_allocs(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end - s.start;
      child_allocs[static_cast<size_t>(s.parent)] +=
          s.allocs_end - s.allocs_start;
    }
  }
  LayerTotals t;
  for (size_t i = 0; i < spans.size(); ++i) {
    t.self_ns[spans[i].name] +=
        static_cast<double>(spans[i].end - spans[i].start - child_ns[i]);
    t.self_allocs[spans[i].name] += static_cast<double>(
        spans[i].allocs_end - spans[i].allocs_start - child_allocs[i]);
  }
  return t;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "# name start_ns end_ns parent event allocs\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%s %lld %lld %d %lld %llu\n", SpanName(s.name),
                 static_cast<long long>(s.start), static_cast<long long>(s.end),
                 s.parent,
                 s.event == kNoEvent ? -1LL : static_cast<long long>(s.event),
                 static_cast<unsigned long long>(s.allocs_end - s.allocs_start));
  }
  std::fclose(out);
}

}  // namespace

ReplicaResult RunReplica(
    const Plan& plan,
    const std::map<std::string, std::vector<std::string>>& expected,
    const std::string& spans_path) {
  ReplicaResult result;
  const size_t n = plan.events.size();
  const double events = static_cast<double>(n - plan.armed_events);
  auto check = [&](const Replica& replica) {
    std::string problem;
    if (replica.Check(expected, &problem) > 0 && result.correct) {
      result.correct = false;
      result.problem = StrCat("replica: ", problem);
    }
  };

  // Baseline and traced replay over the same inputs, both unpaced.
  int64_t baseline_ns = 0;
  {
    Replica replica(plan, nullptr, /*embedded_catalogue=*/false);
    baseline_ns = replica.Replay(/*paced=*/false);
    check(replica);
  }
  Recorder recorder(24 * n + 65536);
  Replica replica(plan, &recorder, /*embedded_catalogue=*/true);
  const int64_t traced_ns = replica.Replay(/*paced=*/false);
  check(replica);
  std::string problem;
  const double detections_ms =
      replica.FetchEmbedded(plan.expected_detections(), &problem);
  if (!problem.empty() && result.correct) {
    result.correct = false;
    result.problem = problem;
  }
  const size_t pipeline_spans = recorder.spans().size();
  replica.CodecPass();
  const std::vector<Span>& spans = recorder.spans();
  const LayerTotals pipeline = Totals(
      std::vector<Span>(spans.begin(), spans.begin() + pipeline_spans));
  const LayerTotals codec =
      Totals(std::vector<Span>(spans.begin() + pipeline_spans, spans.end()));
  WriteSpans(spans, spans_path);

  // Journey waits: an open-loop workload replays at its own pace for
  // them, so the hold reflects the schedule rather than a flat-out replay.
  std::vector<double> wire = replica.WireWaitsUs();
  std::vector<double> hold = replica.SeqHoldsMs();
  if (plan.open_loop) {
    Recorder paced_recorder(24 * n + 65536);
    Replica paced(plan, &paced_recorder, /*embedded_catalogue=*/false);
    paced.Replay(/*paced=*/true);
    check(paced);
    wire = paced.WireWaitsUs();
    hold = paced.SeqHoldsMs();
  }

  const double* self = pipeline.self_ns;
  const double encode = codec.self_ns[kEncode];
  const double decode = codec.self_ns[kDecode];
  double attributed = 0;
  for (int i = 0; i < kNumNames; ++i) attributed += self[i];
  auto per_event = [&](double total) { return total / events; };
  auto& m = result.metrics;
  m.emplace_back("rpc_inject_ns", per_event(self[kRpc]));
  m.emplace_back("stamp_ns", per_event(self[kRaise]));
  m.emplace_back("link_send_ns", per_event(self[kFrame]));
  m.emplace_back("codec_encode_ns", per_event(encode));
  m.emplace_back("codec_decode_ns", per_event(decode));
  m.emplace_back("net_send_ns",
                 per_event(std::max(0.0, self[kNetSend] - encode)));
  m.emplace_back("net_recv_ns",
                 per_event(std::max(0.0, self[kNetRecv] - decode)));
  m.emplace_back("link_deliver_ns",
                 per_event(self[kChannelDeliver] + self[kLinkAck]));
  m.emplace_back("seq_offer_ns", per_event(self[kOffer]));
  m.emplace_back("seq_advance_ns",
                 per_event(self[kAdvance] + self[kSequence] + self[kFlush]));
  m.emplace_back("engine_clock_ns", per_event(self[kClock]));
  m.emplace_back("engine_feed_ns", per_event(self[kFeed]));
  m.emplace_back("callback_ns", per_event(self[kDetect]));
  m.emplace_back("timer_ns", per_event(self[kTimer]));
  m.emplace_back("wait_ns", per_event(self[kWait]));
  m.emplace_back("unattributed_ns",
                 per_event(static_cast<double>(traced_ns) - attributed));
  m.emplace_back("wire_wait_us", Quantile(wire, 0.5));
  m.emplace_back("seq_hold_ms", Quantile(hold, 0.5));
  m.emplace_back("rpc_detections_ms", detections_ms);

  const double* allocs = pipeline.self_allocs;
  const std::pair<const char*, double> layer_allocs[] = {
      {"rpc_inject", allocs[kRpc]},
      {"stamp", allocs[kRaise]},
      {"link_send", allocs[kFrame]},
      {"net_send", allocs[kNetSend]},
      {"net_recv", allocs[kNetRecv]},
      {"link_deliver", allocs[kChannelDeliver] + allocs[kLinkAck]},
      {"seq_offer", allocs[kOffer]},
      {"seq_advance", allocs[kAdvance] + allocs[kSequence] + allocs[kFlush]},
      {"engine_clock", allocs[kClock]},
      {"engine_feed", allocs[kFeed]},
      {"callback", allocs[kDetect]},
      {"timer", allocs[kTimer]},
  };
  for (const auto& [layer, count] : layer_allocs) {
    m.emplace_back(StrCat(layer, ".allocs_per_event"), per_event(count));
  }
  m.emplace_back("replica_eps",
                 events / (static_cast<double>(baseline_ns) / 1e9));
  m.emplace_back("overhead_pct",
                 100.0 * (static_cast<double>(traced_ns) /
                              static_cast<double>(baseline_ns) -
                          1.0));
  return result;
}

}  // namespace e2ebench
