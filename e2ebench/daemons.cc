#include "daemons.h"

#include <poll.h>
#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string_view>
#include <thread>

#include "daemon/hex.h"
#include "dist/codec.h"
#include "proc.h"
#include "util/string_util.h"

namespace e2ebench {
namespace {

using sentineld::StrCat;

constexpr uint64_t kKindShift = 56;
constexpr uint64_t kIndexMask = (uint64_t{1} << kKindShift) - 1;
enum Kind : uint64_t { kSetup = 1, kInject, kStats, kFlush };

uint64_t Tag(Kind kind, uint64_t index) {
  return (uint64_t{kind} << kKindShift) | index;
}

constexpr int64_t kMs = 1'000'000;
/// How often the detector's STATS is polled for new detections.
constexpr int64_t kStatsPeriodNs = 1 * kMs;
constexpr int64_t kIdleProbeNs = 200 * kMs;
constexpr int64_t kRoundDeadlineNs = 150'000 * kMs;
/// DETECTIONS is fetched this many times per round (the replies must be
/// identical) and the median fetch time reported.
constexpr int kFetches = 3;

struct Site {
  SiteId id = 0;
  Child child;
  RpcConn conn;
  pid_t pid = -1;
  ProcSample load_start;
  ProcSample load_end;
};

std::string ConfigText(const Plan& plan, SiteId site, const std::string& dir,
                       const std::string& detector_transport) {
  const sentineld::TimebaseConfig tb = BenchTimebase();
  std::string text = StrCat(
      "site = ", site, "\nrole = ",
      site == kDetectorSite ? "detector" : "injector",
      "\nrpc_listen = 127.0.0.1:0\nendpoints_file = ", dir, "/site", site,
      ".endpoints\ndetector_site = ", kDetectorSite,
      "\nlocal_granularity_ns = ", tb.local_granularity_ns,
      "\nglobal_granularity_ns = ", tb.global_granularity_ns,
      "\nprecision_ns = ", tb.precision_ns, "\n");
  if (site == kDetectorSite) {
    text += "listen = 127.0.0.1:0\n";
    if (plan.window_ticks != kDefaultWindowTicks) {
      text += StrCat("window_ticks = ", plan.window_ticks, "\n");
    }
  } else {
    text += StrCat("peer.", kDetectorSite, " = ", detector_transport, "\n");
  }
  return text;
}

/// Waits up to `timeout_ns` for readiness on every connection and
/// collects complete replies as (site index, reply).
void Pump(std::vector<std::unique_ptr<Site>>& sites, int64_t timeout_ns,
          std::vector<std::pair<size_t, Reply>>* out) {
  std::vector<pollfd> fds;
  for (const auto& site : sites) {
    fds.push_back(pollfd{site->conn.fd(),
                         static_cast<short>(POLLIN | (site->conn.wants_write()
                                                          ? POLLOUT
                                                          : 0)),
                         0});
  }
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
  std::vector<Reply> replies;
  for (size_t i = 0; i < sites.size(); ++i) {
    if (fds[i].revents == 0) continue;
    replies.clear();
    sites[i]->conn.OnReady(fds[i].revents, &replies);
    for (Reply& r : replies) out->emplace_back(i, std::move(r));
  }
}

/// Index into the round's site list (the detector first) of `site`.
size_t SiteIndex(const Plan& plan, SiteId site) {
  if (site == kDetectorSite) return 0;
  const auto it =
      std::find(plan.daemon_sites.begin(), plan.daemon_sites.end(), site);
  return 1 + static_cast<size_t>(it - plan.daemon_sites.begin());
}

bool AllOk(const std::vector<std::unique_ptr<Site>>& sites) {
  return std::all_of(sites.begin(), sites.end(),
                     [](const auto& s) { return s->conn.ok(); });
}

/// "OK <n> <rule>:<hex> ..." -> rule name -> decoded occurrences.
bool ParseDetections(const std::string& reply,
                     std::map<std::string, std::vector<EventPtr>>* out,
                     uint64_t* count) {
  std::string_view rest(reply);
  if (!rest.starts_with("OK ")) return false;
  rest.remove_prefix(3);
  size_t space = rest.find(' ');
  *count = std::strtoull(std::string(rest.substr(0, space)).c_str(), nullptr,
                         10);
  uint64_t seen = 0;
  while (space != std::string_view::npos) {
    rest.remove_prefix(space + 1);
    space = rest.find(' ');
    const std::string_view token = rest.substr(0, space);
    const size_t colon = token.find(':');
    if (colon == std::string_view::npos) return false;
    auto bytes = sentineld::daemon::HexDecode(token.substr(colon + 1));
    if (!bytes.ok()) return false;
    auto event = sentineld::DecodeEvent(*bytes);
    if (!event.ok()) return false;
    (*out)[std::string(token.substr(0, colon))].push_back(std::move(*event));
    ++seen;
  }
  return seen == *count;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

RoundResult RunRound(const Plan& plan, const RoundConfig& config) {
  RoundResult result;
  auto fail = [&result](const std::string& what) {
    if (result.correct) result.problem = what;
    result.correct = false;
  };
  const size_t n = plan.events.size();
  const bool fanin = plan.workload != Workload::kCatalogueWide;
  ::mkdir(config.dir.c_str(), 0755);

  // --- Set-up: spawn, register types, define the catalogue. -------------
  const int64_t setup_start = NowNs();
  std::vector<std::unique_ptr<Site>> sites;  // [0] is the detector
  std::vector<SiteId> ids = {kDetectorSite};
  if (fanin) ids.insert(ids.end(), plan.daemon_sites.begin(),
                        plan.daemon_sites.end());
  std::string detector_transport;
  for (SiteId id : ids) {
    auto site = std::make_unique<Site>();
    site->id = id;
    const std::string conf = StrCat(config.dir, "/site", id, ".conf");
    std::ofstream(conf) << ConfigText(plan, id, config.dir, detector_transport);
    const int cpu = config.daemon_cpus.empty()
                        ? -1
                        : config.daemon_cpus[sites.size() %
                                             config.daemon_cpus.size()];
    if (!site->child.Start({config.sentineld, "--config", conf},
                           StrCat(config.dir, "/site", id, ".log"), cpu)) {
      fail("fork failed");
      return result;
    }
    if (id == kDetectorSite) {
      // Injectors dial the detector, so it must be bound first.
      auto endpoints = WaitForEndpoints(
          StrCat(config.dir, "/site", id, ".endpoints"), 10'000);
      detector_transport = endpoints["transport"];
      if (detector_transport.empty()) {
        fail("detector did not come up");
        return result;
      }
    }
    sites.push_back(std::move(site));
  }
  for (auto& site : sites) {
    auto endpoints = WaitForEndpoints(
        StrCat(config.dir, "/site", site->id, ".endpoints"), 10'000);
    if (endpoints.empty() || !site->conn.Connect(endpoints["rpc"], 10'000)) {
      fail(StrCat("site ", site->id, " did not come up"));
      return result;
    }
    site->pid = std::stoi(endpoints["pid"]);
  }
  size_t setup_pending = 0;
  for (auto& site : sites) {
    for (size_t t = 0; t < plan.type_names.size(); ++t) {
      site->conn.Send(StrCat("REGTYPE ", plan.type_names[t]), Tag(kSetup, t));
      ++setup_pending;
    }
  }
  for (size_t r = 0; r < plan.rules.size(); ++r) {
    sites[0]->conn.Send(
        StrCat("DEFRULE ", plan.rules[r].name, " ", plan.rules[r].expr),
        Tag(kSetup, plan.type_names.size() + r));
    ++setup_pending;
  }
  std::vector<std::pair<size_t, Reply>> replies;
  while (setup_pending > 0 && AllOk(sites) &&
         NowNs() - setup_start < kRoundDeadlineNs) {
    replies.clear();
    Pump(sites, 10 * kMs, &replies);
    for (const auto& [s, reply] : replies) {
      --setup_pending;
      const uint64_t index = reply.tag & kIndexMask;
      const bool ok = index < plan.type_names.size()
                          ? reply.text == StrCat("OK ", index)
                          : reply.text.starts_with("OK ");
      if (!ok) fail(StrCat("set-up reply '", reply.text, "'"));
    }
  }
  if (setup_pending > 0) fail("set-up did not finish");
  if (!result.correct) return result;
  // Arm: inject the initiators and wait until the detector holds them,
  // which also has every injector dial its link before the load.
  for (size_t i = 0; i < plan.armed_events; ++i) {
    const PlannedEvent& e = plan.events[i];
    const std::string reply = sites[SiteIndex(plan, e.site)]->conn.Call(
        StrCat("INJECT ", plan.type_names[e.type], " ", e.tick));
    if (!reply.starts_with("OK ")) fail(StrCat("arming INJECT -> '", reply, "'"));
  }
  while (result.correct) {
    const std::string stats = sites[0]->conn.Call("STATS");
    if (StatsInt(stats, "released") + StatsInt(stats, "seq_pending") ==
        static_cast<int64_t>(plan.armed_events)) {
      break;
    }
    if (NowNs() - setup_start > kRoundDeadlineNs) fail("arming did not finish");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (!result.correct) return result;
  result.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

  // --- Idle probe: daemon CPU over a quiet interval. ---------------------
  {
    std::vector<ProcSample> before(sites.size()), after(sites.size());
    for (size_t i = 0; i < sites.size(); ++i) {
      ReadProcSample(sites[i]->pid, &before[i]);
    }
    const int64_t t0 = NowNs();
    std::this_thread::sleep_for(std::chrono::nanoseconds(kIdleProbeNs));
    const int64_t dt = NowNs() - t0;
    double pct = 0;
    for (size_t i = 0; i < sites.size(); ++i) {
      ReadProcSample(sites[i]->pid, &after[i]);
      pct += 100.0 * static_cast<double>(after[i].cpu_ns - before[i].cpu_ns) /
             static_cast<double>(dt);
    }
    result.idle_cpu_pct = pct / static_cast<double>(sites.size());
  }

  // --- Load. --------------------------------------------------------------
  std::vector<std::string> lines(n);
  std::vector<size_t> site_of(n);
  std::vector<uint64_t> cumulative(n);
  uint64_t running = 0;
  for (size_t i = 0; i < n; ++i) {
    const PlannedEvent& e = plan.events[i];
    lines[i] = StrCat("INJECT ", plan.type_names[e.type], " ", e.tick);
    site_of[i] = SiteIndex(plan, e.site);
    running += plan.detections_per_type[e.type];
    cumulative[i] = running;
  }
  const uint64_t expected_total = plan.expected_detections();
  for (auto& site : sites) ReadProcSample(site->pid, &site->load_start);

  std::vector<int64_t> sent_ns(n, 0);
  std::vector<double> lag_ms;
  std::vector<int> outstanding(sites.size(), 0);
  size_t next = plan.armed_events, lag_next = 0;
  size_t inject_replies = plan.armed_events;
  uint64_t inject_errors = 0;
  bool stats_inflight = false, flush_done = false;
  bool done = false;
  int64_t next_stats = 0, t_end = 0;
  int64_t flush_sent_ns = INT64_MAX;  // INT64_MAX: not sent yet
  int64_t released = 0, fed = 0, late = 0, detections = 0;
  int64_t at_detector = 0;  // events the Sequencer has seen, per STATS
  const int64_t start = NowNs();
  while (!done) {
    int64_t now = NowNs();
    if (now - start > kRoundDeadlineNs || !AllOk(sites)) {
      fail("load did not finish");
      break;
    }
    while (next < n) {
      const size_t s = site_of[next];
      if (plan.open_loop) {
        const int64_t due = start + plan.events[next].tick * 1000;
        if (now < due) break;
        result.lateness_ms.push_back(static_cast<double>(now - due) / 1e6);
      } else if (outstanding[s] >= plan.window ||
                 (plan.in_flight > 0 &&
                  static_cast<int64_t>(next) - at_detector >= plan.in_flight)) {
        break;
      }
      sites[s]->conn.Send(lines[next], Tag(kInject, next));
      sent_ns[next] = now;
      ++outstanding[s];
      ++next;
      now = NowNs();
    }
    if (!fanin && next == n && flush_sent_ns == INT64_MAX) {
      // Straight into the detector: FLUSH queues behind the last INJECT.
      sites[0]->conn.Send("FLUSH", Tag(kFlush, 0));
      flush_sent_ns = NowNs();
    }
    if (!stats_inflight && now >= next_stats) {
      sites[0]->conn.Send("STATS", Tag(kStats, 0));
      stats_inflight = true;
      next_stats = now + kStatsPeriodNs;
    }
    int64_t wait = next_stats - now;
    if (plan.open_loop && next < n) {
      wait = std::min(wait, start + plan.events[next].tick * 1000 - now);
    }
    replies.clear();
    Pump(sites, std::clamp<int64_t>(wait, 0, kStatsPeriodNs), &replies);
    for (const auto& [s, reply] : replies) {
      const uint64_t kind = reply.tag >> kKindShift;
      if (kind == kInject) {
        --outstanding[s];
        ++inject_replies;
        if (!reply.text.starts_with("OK ")) {
          ++inject_errors;
          fail(StrCat("INJECT -> '", reply.text, "'"));
        }
      } else if (kind == kFlush) {
        flush_done = true;
        t_end = reply.recv_ns;
        next_stats = 0;  // one more poll to see the flushed detections
      } else if (kind == kStats) {
        stats_inflight = false;
        released = StatsInt(reply.text, "released");
        fed = StatsInt(reply.text, "events_fed");
        late = StatsInt(reply.text, "late_arrivals");
        detections = StatsInt(reply.text, "detections");
        const int64_t pending = StatsInt(reply.text, "seq_pending");
        at_detector = released + pending;
        result.pending_peak =
            std::max(result.pending_peak, static_cast<double>(pending));
        while (lag_next < n &&
               cumulative[lag_next] <= static_cast<uint64_t>(detections)) {
          // Only detections the heartbeat released count: FLUSH releases
          // the last W ticks' worth early, which is no latency at all.
          if (reply.sent_ns < flush_sent_ns &&
              plan.detections_per_type[plan.events[lag_next].type] > 0) {
            const int64_t from =
                plan.open_loop
                    ? start + (plan.events[lag_next].tick + plan.window_ticks) *
                                  1000
                    : sent_ns[lag_next];
            lag_ms.push_back(static_cast<double>(reply.recv_ns - from) / 1e6);
          }
          ++lag_next;
        }
        if (fanin && flush_sent_ns == INT64_MAX &&
            at_detector == static_cast<int64_t>(n)) {
          // Every event reached the Sequencer; release the tail.
          sites[0]->conn.Send("FLUSH", Tag(kFlush, 0));
          flush_sent_ns = NowNs();
        }
        if (flush_done && reply.sent_ns > t_end && inject_replies == n) {
          done = true;
        }
      }
    }
  }
  for (auto& site : sites) ReadProcSample(site->pid, &site->load_end);
  if (!result.correct) return result;

  // Per-event figures count the stream; the initiators came with set-up.
  const double events = static_cast<double>(n - plan.armed_events);
  result.lag_p50_ms = Quantile(lag_ms, 0.50);
  result.lag_p99_ms = Quantile(lag_ms, 0.99);
  result.ingest_eps = events / (static_cast<double>(t_end - start) / 1e9);
  double cpu_ns = 0, ctxsw = 0;
  for (size_t i = 0; i < sites.size(); ++i) {
    const double d = static_cast<double>(sites[i]->load_end.cpu_ns -
                                         sites[i]->load_start.cpu_ns);
    cpu_ns += d;
    (i == 0 ? result.detector_cpu_us_per_event
            : result.injector_cpu_us_per_event) += d / 1e3 / events;
    ctxsw += static_cast<double>(sites[i]->load_end.voluntary_ctxsw -
                                 sites[i]->load_start.voluntary_ctxsw);
  }
  result.cpu_ms_per_kevent = cpu_ns / 1e6 / (events / 1000);
  result.ctxsw_per_event = ctxsw / events;
  result.detector_peak_rss_mb =
      static_cast<double>(sites[0]->load_end.vm_hwm_kb) / 1024.0;

  if (released != static_cast<int64_t>(n) || fed != released) {
    fail(StrCat("released ", released, " fed ", fed, " of ", n));
  }
  if (late != 0) fail(StrCat(late, " late arrivals"));
  if (detections != static_cast<int64_t>(expected_total)) {
    fail(StrCat(detections, " detections, closed form ", expected_total));
  }
  if (lag_next != n) fail("not every detection was observed");

  // Link and wire counters, once every injector has its acks back.
  double frames = 0, bytes = 0, retransmits = 0;
  for (size_t i = 1; i < sites.size(); ++i) {
    std::string stats = sites[i]->conn.Call("STATS");
    const int64_t deadline = NowNs() + 5'000 * kMs;
    while (StatsInt(stats, "unacked") != 0 && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      stats = sites[i]->conn.Call("STATS");
    }
    if (StatsInt(stats, "unacked") != 0 || StatsInt(stats, "gave_up") != 0) {
      fail(StrCat("injector ", sites[i]->id, ": ", stats));
    }
    retransmits += static_cast<double>(StatsInt(stats, "retransmits"));
    frames += static_cast<double>(StatsInt(stats, "net_frames_sent"));
    bytes += static_cast<double>(StatsInt(stats, "net_bytes_sent"));
  }
  const std::string dstats = sites[0]->conn.Call("STATS");
  if (fanin && StatsInt(dstats, "delivered") != static_cast<int64_t>(n)) {
    fail(StrCat("detector delivered ", StatsInt(dstats, "delivered")));
  }
  if (StatsInt(dstats, "receive_gap") != 0) fail("detector receive gap");
  frames += static_cast<double>(StatsInt(dstats, "net_frames_sent"));
  bytes += static_cast<double>(StatsInt(dstats, "net_bytes_sent"));
  result.retransmits_per_kevent = retransmits / (events / 1000);
  result.duplicates_per_kevent =
      static_cast<double>(StatsInt(dstats, "duplicates")) / (events / 1000);
  result.frames_per_event = frames / events;
  result.bytes_per_event = bytes / events;
  result.late_arrivals = static_cast<double>(late);

  // --- Results: the end-of-run DETECTIONS reply. -------------------------
  std::string reply;
  std::vector<double> fetch_s;
  for (int i = 0; i < kFetches; ++i) {
    const int64_t fetch_start = NowNs();
    std::string again = sites[0]->conn.Call("DETECTIONS", 150'000);
    fetch_s.push_back(static_cast<double>(NowNs() - fetch_start) / 1e9);
    if (i > 0 && again != reply) fail("DETECTIONS replies differ");
    reply = std::move(again);
  }
  result.results_fetch_s = Quantile(fetch_s, 0.5);
  result.fetch_bytes = static_cast<double>(reply.size() + 1);

  for (auto& site : sites) site->conn.Send("SHUTDOWN", 0);
  for (auto& site : sites) {
    if (site->child.WaitOrKill(5'000) != 0) {
      fail(StrCat("site ", site->id, " did not shut down cleanly"));
    }
  }

  std::map<std::string, std::vector<EventPtr>> fetched;
  uint64_t count = 0;
  result.attempted = n + expected_total;
  if (!ParseDetections(reply, &fetched, &count)) {
    fail("malformed DETECTIONS reply");
    result.failed = inject_errors + expected_total;
    return result;
  }
  std::string problem;
  const uint64_t mismatches =
      CountMismatches(*config.expected, fetched, &problem);
  if (mismatches > 0) fail(problem);
  result.failed = inject_errors + std::min(mismatches, expected_total);
  return result;
}

}  // namespace e2ebench
