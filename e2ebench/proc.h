// Process and socket plumbing for the load generator: spawning a
// sentineld child, sampling it from outside through /proc, and a
// nonblocking pipelined client for the daemon's line RPC.
#ifndef SENTINELD_E2EBENCH_PROC_H_
#define SENTINELD_E2EBENCH_PROC_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One reading of a child's counters.
struct ProcSample {
  int64_t cpu_ns = 0;       ///< /proc/<pid>/schedstat run time (or stat)
  int64_t voluntary_ctxsw = 0;
  int64_t vm_hwm_kb = 0;    ///< peak resident set
};

/// Reads /proc/<pid>/{schedstat,stat,status}; false if the process is
/// gone.
bool ReadProcSample(pid_t pid, ProcSample* out);

/// A spawned child with stderr appended to a log file. Killed and
/// reaped on destruction if still running.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// fork/execs argv; `cpu` >= 0 pins the child to that CPU.
  bool Start(const std::vector<std::string>& argv, const std::string& log,
             int cpu);
  /// Forks a child that spins forever under SCHED_IDLE on `cpu`: it runs
  /// only when nothing else on that CPU wants to, so the CPU never idles.
  bool StartSpinner(int cpu);
  /// Waits up to `timeout_ms` for exit; SIGKILLs and reaps after that.
  /// Returns the exit code, or -1 if it had to be killed.
  int WaitOrKill(int timeout_ms);

 private:
  pid_t pid_ = -1;
};

/// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus();

/// Pins the calling process to `cpu`; false on failure.
bool PinToCpu(int cpu);

/// Polls `path` for a daemon endpoints file (key=value lines); empty on
/// timeout.
std::map<std::string, std::string> WaitForEndpoints(const std::string& path,
                                                    int timeout_ms);

/// One reply of the line RPC, with the time its request was issued and
/// the time its last byte arrived.
struct Reply {
  uint64_t tag = 0;
  std::string text;
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;
};

/// Nonblocking, pipelined client: requests queue into the socket at
/// once and replies come back in request order (the daemon answers
/// each line in turn).
class RpcConn {
 public:
  RpcConn() = default;
  ~RpcConn();
  RpcConn(const RpcConn&) = delete;
  RpcConn& operator=(const RpcConn&) = delete;

  bool Connect(const std::string& endpoint, int timeout_ms);
  int fd() const { return fd_; }
  bool ok() const { return fd_ >= 0 && !failed_; }

  /// Queues one request line; tries to write it immediately.
  void Send(const std::string& line, uint64_t tag);
  bool wants_write() const { return wbuf_off_ < wbuf_.size(); }

  /// Handles poll readiness; complete replies are appended to `out`.
  void OnReady(short revents, std::vector<Reply>* out);

  /// Sends one line and blocks (bounded) for its reply; "" on failure.
  std::string Call(const std::string& line, int timeout_ms = 60'000);

 private:
  void Flush();
  void Read(std::vector<Reply>* out);

  int fd_ = -1;
  bool failed_ = false;
  std::string wbuf_;
  size_t wbuf_off_ = 0;
  std::string rbuf_;
  size_t rbuf_scan_ = 0;
  struct Inflight {
    uint64_t tag;
    int64_t sent_ns;
  };
  std::deque<Inflight> inflight_;
};

/// Pulls `key=<int>` out of a STATS reply; -1 when absent.
int64_t StatsInt(const std::string& stats, const std::string& key);

}  // namespace e2ebench

#endif  // SENTINELD_E2EBENCH_PROC_H_
