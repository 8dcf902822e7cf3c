// The traced replica: one process and one thread replay a workload's
// inputs through the site pipeline assembled from the library's public
// classes, wired the way daemon/daemon.cc wires them, and split each
// event's time into layers from spans recorded around every call.
#ifndef SENTINELD_E2EBENCH_REPLICA_H_
#define SENTINELD_E2EBENCH_REPLICA_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "plan.h"

namespace e2ebench {

struct ReplicaResult {
  bool correct = true;
  std::string problem;
  /// (metric name, value) in report order; names carry no "trace." prefix.
  std::vector<std::pair<std::string, double>> metrics;
};

/// Replays `plan` untraced (the baseline) and traced, checks the
/// replica's detections against `expected`, and writes the traced run's
/// spans to `spans_path`.
ReplicaResult RunReplica(
    const Plan& plan,
    const std::map<std::string, std::vector<std::string>>& expected,
    const std::string& spans_path);

}  // namespace e2ebench

#endif  // SENTINELD_E2EBENCH_REPLICA_H_
