// Workload inputs of the end-to-end benchmark: the event types, the rule
// catalogue with its arming plan, and the event schedule, all derived
// from (workload, seed). The same pair always yields the same plan.
#ifndef SENTINELD_E2EBENCH_PLAN_H_
#define SENTINELD_E2EBENCH_PLAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "event/event.h"
#include "event/registry.h"
#include "timebase/config.h"
#include "util/status.h"

namespace e2ebench {

using sentineld::EventPtr;
using sentineld::SiteId;

enum class Workload { kFaninSteady, kFaninBurst, kCatalogueWide };

const char* WorkloadName(Workload workload);
sentineld::Result<Workload> ParseWorkload(const std::string& name);

/// Detector site id; injectors are sites 1 and 2.
inline constexpr SiteId kDetectorSite = 0;

/// Daemon clock settings shared by every process and the oracle: local
/// ticks are microseconds, g_g is 10 ticks and Pi < g_g.
sentineld::TimebaseConfig BenchTimebase();

/// The daemon's default Sequencer stability window W, in local ticks.
inline constexpr int64_t kDefaultWindowTicks = 256;
/// The daemon's default heartbeat.
inline constexpr int64_t kHeartbeatMs = 5;

struct PlannedRule {
  std::string name;
  std::string expr;
  /// Indices into Plan::type_names of every primitive the rule names.
  std::vector<uint32_t> types;
  /// Closed-form count of the rule's detections under the arming plan.
  uint64_t expected = 0;
};

struct PlannedEvent {
  uint32_t type = 0;  ///< index into Plan::type_names
  SiteId site = 0;    ///< the daemon the INJECT goes to
  int64_t tick = 0;   ///< local tick (µs of the schedule)
};

struct Plan {
  Workload workload = Workload::kFaninSteady;
  /// REGTYPE order, the same on every daemon and in the oracle so type
  /// ids agree: initiators S0.. first, then stream types T0...
  std::vector<std::string> type_names;
  std::vector<PlannedRule> rules;
  /// Detections one occurrence of each type terminates (by type index).
  std::vector<uint64_t> detections_per_type;
  /// Injection order: the armed initiators, then the stream.
  std::vector<PlannedEvent> events;
  /// events[0, armed_events) are the initiators, injected during set-up:
  /// arming the catalogue also opens every injector's link.
  size_t armed_events = 0;
  std::vector<SiteId> daemon_sites;  ///< INJECT targets: {1, 2} or {0}
  /// Open loop: event i is due at events[i].tick µs after the schedule
  /// starts. Closed loop: at most `window` INJECTs outstanding per
  /// daemon, and ticks are schedule positions a fixed step apart.
  bool open_loop = false;
  int window = 0;
  /// Closed loop: at most this many events injected but not yet at the
  /// detector's Sequencer (0: no such cap).
  int64_t in_flight = 0;
  /// The detector's stability window W (config `window_ticks`).
  int64_t window_ticks = kDefaultWindowTicks;

  uint64_t expected_detections() const;
  /// The detector plus one daemon per injector site.
  size_t num_daemons() const {
    return daemon_sites.front() == kDetectorSite ? 1 : 1 + daemon_sites.size();
  }
  size_t armed_rules() const;
};

/// Builds the plan. `short_mode` shrinks the stream (same shapes, same
/// catalogue) so every workload can self-test in a few seconds.
Plan MakePlan(Workload workload, uint64_t seed, bool short_mode);

/// The stream as primitive occurrences stamped exactly as the daemons
/// stamp them (approximated-global timebase, StampLocal).
std::vector<EventPtr> StampHistory(const Plan& plan,
                                   sentineld::EventTypeRegistry& registry);

/// Registers the plan's primitive types into `registry` in REGTYPE order.
void RegisterTypes(const Plan& plan, sentineld::EventTypeRegistry& registry);

/// Per-rule sorted OccurrenceSignatures the declarative
/// ReferenceDetector computes over `history` filtered to each rule's
/// types (empty for unarmed rules). Checks each against the closed form.
sentineld::Result<std::map<std::string, std::vector<std::string>>>
ExpectedSignatures(const Plan& plan, sentineld::EventTypeRegistry& registry,
                   const std::vector<EventPtr>& history);

/// Compares fetched detections (rule name -> occurrences) with the
/// expectation; returns the number of expected detections missing plus
/// unexpected ones present (0 when they agree as multisets).
uint64_t CountMismatches(
    const std::map<std::string, std::vector<std::string>>& expected,
    const std::map<std::string, std::vector<EventPtr>>& fetched,
    std::string* first_problem);

}  // namespace e2ebench

#endif  // SENTINELD_E2EBENCH_PLAN_H_
