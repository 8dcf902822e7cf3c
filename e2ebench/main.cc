// sentineld end-to-end benchmark (README.md in this directory).
//
//   e2ebench --sentineld <binary> --workdir <dir> --workload <name>
//            --seed <n> --seconds <s> --trace <0|1> [--short]
//
// Runs whole rounds of the workload against real sentineld processes
// until --seconds have passed (at least three rounds; one with --short),
// checks every detection of every round against the declarative oracle
// and the arming plan's closed form, and prints one JSON object as the
// last line of stdout: the end-to-end metrics with --trace 0, the
// per-layer metrics (sampled from outside plus the traced replica) with
// --trace 1. Exits non-zero if any check failed.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "daemons.h"
#include "plan.h"
#include "proc.h"
#include "replica.h"
#include "util/string_util.h"

namespace e2ebench {
namespace {

using sentineld::StrCat;

struct Args {
  std::string sentineld;
  std::string workdir;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_mode = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      args->short_mode = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--sentineld") {
      args->sentineld = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->sentineld.empty() && !args->workdir.empty() &&
         !args->workload.empty();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int Run(const Args& args) {
  auto workload = ParseWorkload(args.workload);
  if (!workload.ok()) {
    std::fprintf(stderr, "e2ebench: %s\n", workload.status().ToString().c_str());
    return 2;
  }
  if (::access(args.sentineld.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "e2ebench: no daemon binary at %s\n",
                 args.sentineld.c_str());
    return 2;
  }
  const Plan plan = MakePlan(*workload, args.seed, args.short_mode);
  sentineld::EventTypeRegistry registry;
  RegisterTypes(plan, registry);
  const std::vector<EventPtr> history = StampHistory(plan, registry);
  auto expected = ExpectedSignatures(plan, registry, history);
  if (!expected.ok()) {
    std::fprintf(stderr, "e2ebench: oracle: %s\n",
                 expected.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "e2ebench: %s seed %llu: %zu events, %zu rules (%zu armed), "
               "%llu expected detections\n",
               WorkloadName(plan.workload),
               static_cast<unsigned long long>(args.seed), plan.events.size(),
               plan.rules.size(), plan.armed_rules(),
               static_cast<unsigned long long>(plan.expected_detections()));

  const std::string dir =
      StrCat(args.workdir, "/", WorkloadName(plan.workload), "-", ::getpid());
  ::mkdir(args.workdir.c_str(), 0755);
  ::mkdir(dir.c_str(), 0755);

  // One CPU each for the generator and every daemon when there are
  // enough: daemons of a real deployment do not share cores, and the
  // busy-polling ones would otherwise preempt each other.
  std::vector<int> daemon_cpus;
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() >= 1 + plan.num_daemons() && PinToCpu(cpus[0])) {
    daemon_cpus.assign(cpus.begin() + 1, cpus.end());
  }

  // Keep every CPU busy at the lowest priority (README.md, "CPU").
  std::vector<Child> spinners(cpus.size());
  for (size_t i = 0; i < cpus.size(); ++i) spinners[i].StartSpinner(cpus[i]);

  // Whole rounds, each the same operations, until the time is used.
  const size_t min_rounds = args.short_mode ? 1 : 3;
  const int64_t t0 = NowNs();
  std::vector<RoundResult> rounds;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  while (rounds.size() < min_rounds ||
         static_cast<double>(NowNs() - t0) / 1e9 < args.seconds) {
    RoundConfig config;
    config.sentineld = args.sentineld;
    config.dir = StrCat(dir, "/round", rounds.size());
    config.expected = &*expected;
    config.daemon_cpus = daemon_cpus;
    RoundResult round = RunRound(plan, config);
    attempted += round.attempted;
    failed += round.failed;
    if (!round.correct) {
      std::fprintf(stderr, "e2ebench: round %zu failed: %s\n", rounds.size(),
                   round.problem.c_str());
      correct = false;
      break;
    }
    std::fprintf(stderr,
                 "e2ebench: round %zu: setup %.4f s, %.0f events/s, lag p50 "
                 "%.3f p99 %.3f ms, %.1f cpu ms/kevent, fetch %.4f s\n",
                 rounds.size(), round.setup_s, round.ingest_eps,
                 round.lag_p50_ms, round.lag_p99_ms, round.cpu_ms_per_kevent,
                 round.results_fetch_s);
    rounds.push_back(std::move(round));
  }

  auto med = [&](double RoundResult::*field) {
    std::vector<double> values;
    for (const RoundResult& r : rounds) values.push_back(r.*field);
    return Quantile(values, 0.5);
  };
  std::vector<Metric> metrics;
  if (correct && !args.trace) {
    metrics = {
        {"setup_s", med(&RoundResult::setup_s), "s"},
        {"ingest_eps", med(&RoundResult::ingest_eps), "events/s"},
        // Per-round quantiles, then the median over rounds: one round
        // hit by a scheduling stall does not move the tail.
        {"detect_lag_p50_ms", med(&RoundResult::lag_p50_ms), "ms"},
        {"detect_lag_p99_ms", med(&RoundResult::lag_p99_ms), "ms"},
        {"cpu_ms_per_kevent", med(&RoundResult::cpu_ms_per_kevent),
         "ms/kevent"},
        {"detector_peak_rss_mb", med(&RoundResult::detector_peak_rss_mb),
         "MB"},
        {"results_fetch_s", med(&RoundResult::results_fetch_s), "s"},
    };
  } else if (correct) {
    std::vector<double> lateness;
    for (const RoundResult& r : rounds) {
      lateness.insert(lateness.end(), r.lateness_ms.begin(),
                      r.lateness_ms.end());
    }
    metrics = {
        {"detector.cpu_us_per_event",
         med(&RoundResult::detector_cpu_us_per_event), "us/event"},
        {"injector.cpu_us_per_event",
         med(&RoundResult::injector_cpu_us_per_event), "us/event"},
        {"daemon.idle_cpu_pct", med(&RoundResult::idle_cpu_pct), "%"},
        {"daemon.ctxsw_per_event", med(&RoundResult::ctxsw_per_event),
         "1/event"},
        {"link.retransmits_per_kevent",
         med(&RoundResult::retransmits_per_kevent), "1/kevent"},
        {"link.duplicates_per_kevent",
         med(&RoundResult::duplicates_per_kevent), "1/kevent"},
        {"net.frames_per_event", med(&RoundResult::frames_per_event),
         "1/event"},
        {"net.bytes_per_event", med(&RoundResult::bytes_per_event), "B/event"},
        {"seq.pending_peak", med(&RoundResult::pending_peak), "count"},
        {"seq.late_arrivals", med(&RoundResult::late_arrivals), "count"},
        {"gen.lateness_p99_ms", Quantile(lateness, 0.99), "ms"},
        {"rpc.fetch_bytes", med(&RoundResult::fetch_bytes), "B"},
    };
    const ReplicaResult replica = RunReplica(
        plan, *expected, StrCat(dir, "/spans-", WorkloadName(plan.workload),
                                ".txt"));
    if (!replica.correct) {
      std::fprintf(stderr, "e2ebench: %s\n", replica.problem.c_str());
      correct = false;
      ++failed;
    }
    for (const auto& [name, value] : replica.metrics) {
      std::string unit = "ns/event";
      if (name.ends_with("_us")) unit = "us";
      if (name.ends_with("_ms")) unit = "ms";
      if (name.ends_with("allocs_per_event")) unit = "1/event";
      if (name == "replica_eps") unit = "events/s";
      if (name == "overhead_pct") unit = "%";
      metrics.push_back({StrCat("trace.", name), value, unit});
    }
  }
  std::fprintf(stderr, "e2ebench: %zu rounds in %.1f s\n", rounds.size(),
               static_cast<double>(NowNs() - t0) / 1e9);
  if (!correct) return 1;

  std::string json = StrCat("{\"correct\": true, \"attempted\": ", attempted,
                            ", \"failed\": ", failed, ", \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    json += StrCat(i == 0 ? "" : ", ", "\"", metrics[i].name,
                   "\": {\"value\": ", value, ", \"unit\": \"",
                   metrics[i].unit, "\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --sentineld <binary> --workdir <dir> "
                 "--workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--short]\n");
    return 2;
  }
  return e2ebench::Run(args);
}
