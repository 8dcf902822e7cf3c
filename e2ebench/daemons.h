// One measured round against real sentineld processes: spawn and set up
// the daemons, probe their idle CPU, drive the workload's schedule from
// this single thread, fetch and check every detection, shut down.
#ifndef SENTINELD_E2EBENCH_DAEMONS_H_
#define SENTINELD_E2EBENCH_DAEMONS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "plan.h"

namespace e2ebench {

struct RoundConfig {
  std::string sentineld;  ///< daemon binary
  std::string dir;        ///< scratch directory for configs and logs
  /// CPU per daemon, detector first; empty: no pinning.
  std::vector<int> daemon_cpus;
  /// Expected per-rule signatures (ExpectedSignatures).
  const std::map<std::string, std::vector<std::string>>* expected = nullptr;
};

struct RoundResult {
  bool correct = true;
  std::string problem;  ///< first failed check, for stderr
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // End to end.
  double setup_s = 0;
  double ingest_eps = 0;
  double cpu_ms_per_kevent = 0;
  double detector_peak_rss_mb = 0;
  double results_fetch_s = 0;  ///< median of kFetches identical fetches
  double lag_p50_ms = 0;        ///< over the round's terminating events
  double lag_p99_ms = 0;
  std::vector<double> lateness_ms;  ///< open loop: send time - due time

  // Per layer, from outside.
  double detector_cpu_us_per_event = 0;
  double injector_cpu_us_per_event = 0;
  double idle_cpu_pct = 0;
  double ctxsw_per_event = 0;
  double retransmits_per_kevent = 0;
  double duplicates_per_kevent = 0;
  double frames_per_event = 0;
  double bytes_per_event = 0;
  double pending_peak = 0;
  double late_arrivals = 0;
  double fetch_bytes = 0;
};

RoundResult RunRound(const Plan& plan, const RoundConfig& config);

/// Linear-interpolated quantile of `values`, q in [0, 1]; 0 when empty.
double Quantile(std::vector<double> values, double q);

}  // namespace e2ebench

#endif  // SENTINELD_E2EBENCH_DAEMONS_H_
