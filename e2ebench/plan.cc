#include "plan.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <span>

#include "snoop/parser.h"
#include "snoop/reference_detector.h"
#include "timebase/timebase.h"
#include "util/string_util.h"

namespace e2ebench {
namespace {

using sentineld::Result;
using sentineld::Status;
using sentineld::StrCat;

/// splitmix64: a fixed generator, so a seed means the same inputs on
/// every platform and library version.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t state_;
};

struct Sizing {
  uint32_t initiators = 0;   ///< S types; S0 and S1 are injected once
  uint32_t stream = 0;       ///< T types
  uint32_t rules = 0;
  uint32_t armed_rules = 0;  ///< rules over S0/S1; the rest never fire
  uint32_t events = 0;       ///< stream length
  double rate_eps = 0;       ///< open loop: offered rate
  double spacing_us = 1;     ///< closed loop: tick step per event
  int window = 0;            ///< closed loop: INJECTs outstanding per daemon
  int64_t in_flight = 0;     ///< closed loop: events not yet at the detector
  int64_t window_ticks = kDefaultWindowTicks;
};

Sizing SizingFor(Workload workload, bool short_mode) {
  Sizing s;
  switch (workload) {
    case Workload::kFaninSteady:
      s = {.initiators = 16, .stream = 32, .rules = 64, .armed_rules = 4,
           .events = 5000, .rate_eps = 2000.0,
           // Ticks are wall-clock µs here, and W must cover how far one
           // injector can fall behind the other: a busy-polling daemon
           // preempted on a loaded box falls behind by milliseconds, and
           // once by more than 20 ms (README.md), far past the 256 µs
           // default.
           .window_ticks = 200'000};
      break;
    case Workload::kFaninBurst:
      // Ticks step 10 µs per event; the in-flight cap bounds the skew
      // between the two injectors' streams at the detector to 1024
      // events = 10240 ticks, inside W.
      s = {.initiators = 16, .stream = 32, .rules = 64, .armed_rules = 4,
           .events = 10000, .spacing_us = 10, .window = 16,
           .in_flight = 1024, .window_ticks = 20'000};
      break;
    case Workload::kCatalogueWide:
      // One site, so nothing can arrive late: the default W.
      s = {.initiators = 1024, .stream = 256, .rules = 20000,
           .armed_rules = 12, .events = 20000, .spacing_us = 1, .window = 16};
      break;
  }
  if (short_mode) s.events /= 10;
  return s;
}

/// Rule bodies over initiator indices a, b and stream indices j, k. The
/// unrestricted context never consumes, so an initiator injected once
/// pairs with every later terminator: detections grow linearly.
enum class Shape { kSeqOr, kSeq, kAndSeq, kOrSeq };

struct Body {
  Shape shape = Shape::kSeq;
  uint32_t a = 0, b = 0, j = 0, k = 0;
  bool commuted = false;  ///< operands of the and/or swapped
};

std::string RenderBody(const Body& body) {
  const std::string sa = StrCat("S", body.a), sb = StrCat("S", body.b);
  const std::string tj = StrCat("T", body.j), tk = StrCat("T", body.k);
  switch (body.shape) {
    case Shape::kSeqOr:
      return body.commuted ? StrCat(sa, " ; (", tk, " or ", tj, ")")
                           : StrCat(sa, " ; (", tj, " or ", tk, ")");
    case Shape::kSeq:
      return StrCat(sa, " ; ", tj);
    case Shape::kAndSeq:
      return body.commuted ? StrCat("(", sb, " and ", sa, ") ; ", tj)
                           : StrCat("(", sa, " and ", sb, ") ; ", tj);
    case Shape::kOrSeq:
      return body.commuted
                 ? StrCat("(", sb, " ; ", tk, ") or (", sa, " ; ", tj, ")")
                 : StrCat("(", sa, " ; ", tj, ") or (", sb, " ; ", tk, ")");
  }
  return "";
}

/// (stream type, detections each of its occurrences terminates) for
/// `body` given the initiator counts. Every initiator precedes every
/// terminator, so the rule's closed form is the sum of weight x count.
std::vector<std::pair<uint32_t, uint64_t>> Terminators(
    const Body& body, const std::vector<uint64_t>& n_s) {
  switch (body.shape) {
    case Shape::kSeqOr:
      return {{body.j, n_s[body.a]}, {body.k, n_s[body.a]}};
    case Shape::kSeq:
      return {{body.j, n_s[body.a]}};
    case Shape::kAndSeq:
      return {{body.j, n_s[body.a] * n_s[body.b]}};
    case Shape::kOrSeq:
      return {{body.j, n_s[body.a]}, {body.k, n_s[body.b]}};
  }
  return {};
}

std::vector<uint32_t> BodyTypes(const Body& body, uint32_t num_s) {
  std::set<uint32_t> types = {body.a, num_s + body.j};
  if (body.shape == Shape::kSeqOr || body.shape == Shape::kOrSeq) {
    types.insert(num_s + body.k);
  }
  if (body.shape == Shape::kAndSeq || body.shape == Shape::kOrSeq) {
    types.insert(body.b);
  }
  return {types.begin(), types.end()};
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kFaninSteady:
      return "fanin-steady";
    case Workload::kFaninBurst:
      return "fanin-burst";
    case Workload::kCatalogueWide:
      return "catalogue-wide";
  }
  return "?";
}

Result<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kFaninSteady, Workload::kFaninBurst,
                     Workload::kCatalogueWide}) {
    if (name == WorkloadName(w)) return w;
  }
  return Status::InvalidArgument(StrCat("unknown workload '", name, "'"));
}

sentineld::TimebaseConfig BenchTimebase() {
  sentineld::TimebaseConfig tb;
  tb.local_granularity_ns = 1'000;
  tb.global_granularity_ns = 10'000;
  tb.precision_ns = 9'000;
  return tb;
}

uint64_t Plan::expected_detections() const {
  uint64_t total = 0;
  for (const PlannedRule& rule : rules) total += rule.expected;
  return total;
}

size_t Plan::armed_rules() const {
  return static_cast<size_t>(
      std::count_if(rules.begin(), rules.end(),
                    [](const PlannedRule& r) { return r.expected > 0; }));
}

Plan MakePlan(Workload workload, uint64_t seed, bool short_mode) {
  const Sizing size = SizingFor(workload, short_mode);
  // The stream and the catalogue draw from separate generators, so the
  // two fan-in workloads share one catalogue for a given seed.
  const bool fanin = workload != Workload::kCatalogueWide;
  Rng rng(seed ^ (static_cast<uint64_t>(workload) << 56));
  Rng catalogue_rng(seed ^ ((fanin ? 0xF1ULL : 0xC1ULL) << 48));
  Plan plan;
  plan.workload = workload;
  for (uint32_t i = 0; i < size.initiators; ++i) {
    plan.type_names.push_back(StrCat("S", i));
  }
  for (uint32_t i = 0; i < size.stream; ++i) {
    plan.type_names.push_back(StrCat("T", i));
  }
  plan.daemon_sites = fanin ? std::vector<SiteId>{1, 2}
                            : std::vector<SiteId>{kDetectorSite};
  plan.open_loop = size.rate_eps > 0;
  plan.window = size.window;
  plan.window_ticks = size.window_ticks;

  plan.in_flight = size.in_flight;

  // Schedule: S0 and S1 once each (one per injector), then the stream
  // from tick 1000 on, so every initiator is `<` every terminator (1 ms
  // is 100 global ticks). Every stream type occurs equally often, so the
  // detection count, and with it every cost that scales with it, is the
  // same for every seed.
  constexpr uint32_t kArmedInitiators = 2;
  std::vector<uint64_t> n_s(size.initiators, 0), n_t(size.stream, 0);
  for (uint32_t a = 0; a < kArmedInitiators; ++a) {
    const SiteId site = plan.daemon_sites[a % plan.daemon_sites.size()];
    plan.events.push_back({a, site, static_cast<int64_t>(1 + a)});
    ++n_s[a];
  }
  plan.armed_events = plan.events.size();
  std::vector<uint32_t> stream_types(size.events);
  for (uint32_t i = 0; i < size.events; ++i) stream_types[i] = i % size.stream;
  for (uint32_t i = size.events; i > 1; --i) {
    std::swap(stream_types[i - 1], stream_types[rng.Below(i)]);
  }
  const double spacing_us =
      plan.open_loop ? 1e6 / size.rate_eps : size.spacing_us;
  int64_t prev = 0;
  for (uint32_t i = 0; i < size.events; ++i) {
    PlannedEvent event;
    event.type = size.initiators + stream_types[i];
    ++n_t[stream_types[i]];
    event.site =
        plan.daemon_sites[rng.Below(static_cast<uint32_t>(
            plan.daemon_sites.size()))];
    int64_t tick = 1000 + static_cast<int64_t>(i * spacing_us);
    if (plan.open_loop) {
      // Jitter within the first half of the slot keeps ticks distinct
      // and the offered rate exact over the run.
      tick += static_cast<int64_t>(rng.Below(
          static_cast<uint32_t>(std::max(1.0, spacing_us / 2))));
    }
    event.tick = std::max(tick, prev + 1);
    prev = event.tick;
    plan.events.push_back(event);
  }

  // Catalogue, the four shapes in turn. The armed rules are over S0/S1
  // (from the fifth on, each repeats or commutes the one four before).
  // The rest name only initiators that are never injected, so they do
  // the engine's work and must detect nothing; a quarter of them repeat
  // or commute an earlier body, the sharing a hash-consing engine can
  // exploit.
  auto fresh = [&](uint32_t r, uint32_t s_lo) {
    Body body;
    body.shape = static_cast<Shape>(r % 4);
    const uint32_t s_span = s_lo == 0 ? kArmedInitiators : size.initiators - s_lo;
    body.a = s_lo + catalogue_rng.Below(s_span);
    body.b = s_lo + catalogue_rng.Below(s_span - 1);
    if (body.b >= body.a) ++body.b;  // two distinct initiators
    body.j = catalogue_rng.Below(size.stream);
    body.k = catalogue_rng.Below(size.stream - 1);
    if (body.k >= body.j) ++body.k;
    return body;
  };
  auto commute = [&](Body body) {
    if (body.shape != Shape::kSeq && catalogue_rng.Below(2) == 0) {
      body.commuted = !body.commuted;
    }
    return body;
  };
  std::vector<Body> bodies;
  bodies.reserve(size.rules);
  plan.detections_per_type.assign(plan.type_names.size(), 0);
  for (uint32_t r = 0; r < size.rules; ++r) {
    Body body;
    if (r < size.armed_rules) {
      body = r < 4 ? fresh(r, 0) : commute(bodies[r - 4]);
    } else if (r >= size.armed_rules + 16 && (r / 4) % 4 == 3) {
      // Every fourth block of four: an earlier unarmed body of the same
      // shape, so shape mix and sharing are the same for every seed.
      const uint32_t back = 4 * (1 + catalogue_rng.Below(
                                         (r - size.armed_rules) / 4 - 1));
      body = commute(bodies[r - back]);
    } else {
      body = fresh(r, kArmedInitiators);
    }
    bodies.push_back(body);
    PlannedRule rule;
    rule.name = StrCat("r", r);
    rule.expr = RenderBody(body);
    rule.types = BodyTypes(body, size.initiators);
    for (const auto& [t, weight] : Terminators(body, n_s)) {
      rule.expected += weight * n_t[t];
      plan.detections_per_type[size.initiators + t] += weight;
    }
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

void RegisterTypes(const Plan& plan, sentineld::EventTypeRegistry& registry) {
  for (const std::string& name : plan.type_names) {
    CHECK_OK(registry.GetOrRegister(name, sentineld::EventClass::kExplicit));
  }
}

std::vector<EventPtr> StampHistory(const Plan& plan,
                                   sentineld::EventTypeRegistry& registry) {
  auto timebase = sentineld::MakeTimebase(
      sentineld::TimebaseKind::kApproxGlobal, 3, BenchTimebase());
  CHECK_OK(timebase);
  std::vector<EventPtr> history;
  history.reserve(plan.events.size());
  for (const PlannedEvent& e : plan.events) {
    const auto id = registry.Lookup(plan.type_names[e.type]);
    CHECK_OK(id);
    history.push_back(sentineld::Event::MakePrimitive(
        *id, (*timebase)->StampLocal(e.site, e.tick)));
  }
  return history;
}

Result<std::map<std::string, std::vector<std::string>>> ExpectedSignatures(
    const Plan& plan, sentineld::EventTypeRegistry& registry,
    const std::vector<EventPtr>& history) {
  std::map<std::string, std::vector<std::string>> out;
  sentineld::ReferenceDetector oracle(&registry);
  for (const PlannedRule& rule : plan.rules) {
    std::vector<std::string>& sigs = out[rule.name];
    if (rule.expected == 0) continue;
    std::set<sentineld::EventTypeId> types;
    for (uint32_t t : rule.types) {
      types.insert(*registry.Lookup(plan.type_names[t]));
    }
    std::vector<EventPtr> filtered;
    for (const EventPtr& e : history) {
      if (types.contains(e->type())) filtered.push_back(e);
    }
    Result<sentineld::ExprPtr> expr = sentineld::ParseExpr(rule.expr, registry);
    if (!expr.ok()) return expr.status();
    Result<std::vector<EventPtr>> found = oracle.Evaluate(*expr, filtered);
    if (!found.ok()) return found.status();
    if (found->size() != rule.expected) {
      return Status::Internal(StrCat("rule ", rule.name, " (", rule.expr,
                                     "): oracle finds ", found->size(),
                                     ", closed form says ", rule.expected));
    }
    sigs = sentineld::Signatures(*found);
  }
  return out;
}

uint64_t CountMismatches(
    const std::map<std::string, std::vector<std::string>>& expected,
    const std::map<std::string, std::vector<EventPtr>>& fetched,
    std::string* first_problem) {
  uint64_t mismatches = 0;
  auto note = [&](const std::string& what) {
    if (first_problem->empty()) *first_problem = what;
  };
  for (const auto& [name, events] : fetched) {
    if (!expected.contains(name)) {
      mismatches += events.size();
      note(StrCat("detections of unknown rule ", name));
    }
  }
  for (const auto& [name, want] : expected) {
    const auto it = fetched.find(name);
    const std::vector<std::string> got =
        it == fetched.end() ? std::vector<std::string>{}
                            : sentineld::Signatures(it->second);
    std::vector<std::string> missing, extra;
    std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                        std::back_inserter(missing));
    std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                        std::back_inserter(extra));
    if (!missing.empty() || !extra.empty()) {
      note(StrCat("rule ", name, ": ", missing.size(), " missing, ",
                  extra.size(), " unexpected of ", want.size()));
    }
    mismatches += missing.size() + extra.size();
  }
  return mismatches;
}

}  // namespace e2ebench
