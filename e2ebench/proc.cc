#include "proc.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace e2ebench {
namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

int64_t StatusField(const std::string& status, const char* key) {
  const size_t at = status.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(status.c_str() + at + std::strlen(key), nullptr, 10);
}

}  // namespace

bool ReadProcSample(pid_t pid, ProcSample* out) {
  const std::string dir = "/proc/" + std::to_string(pid);
  std::string text;
  // schedstat's first field is the task's on-CPU time in ns; stat's
  // utime + stime only has clock-tick resolution, so it is the fallback.
  if (ReadFile(dir + "/schedstat", &text) && !text.empty()) {
    out->cpu_ns = std::strtoll(text.c_str(), nullptr, 10);
  } else {
    if (!ReadFile(dir + "/stat", &text)) return false;
    const size_t close = text.rfind(')');
    if (close == std::string::npos) return false;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    int64_t utime = 0, stime = 0;
    // Fields after "pid (comm) ": state is field 3, utime 14, stime 15.
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::stoll(field);
      if (i == 15) stime = std::stoll(field);
    }
    out->cpu_ns = (utime + stime) * (1'000'000'000 / sysconf(_SC_CLK_TCK));
  }
  if (!ReadFile(dir + "/status", &text)) return false;
  out->voluntary_ctxsw = StatusField(text, "voluntary_ctxt_switches:");
  out->vm_hwm_kb = StatusField(text, "VmHWM:");
  return true;
}

Child::~Child() { WaitOrKill(0); }

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

bool Child::Start(const std::vector<std::string>& argv,
                  const std::string& log, int cpu) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Never outlive the benchmark, whatever way it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (cpu >= 0) PinToCpu(cpu);
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      ::close(log_fd);
    }
    ::execv(args[0], args.data());
    _exit(127);
  }
  pid_ = pid;
  return true;
}

bool Child::StartSpinner(int cpu) {
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    PinToCpu(cpu);
    sched_param param{};
    ::sched_setscheduler(0, SCHED_IDLE, &param);
    volatile uint64_t spins = 0;
    while (true) spins = spins + 1;
  }
  pid_ = pid;
  return true;
}

int Child::WaitOrKill(int timeout_ms) {
  if (pid_ <= 0) return -1;
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  int status = 0;
  while (true) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (NowNs() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return -1;
}

std::map<std::string, std::string> WaitForEndpoints(const std::string& path,
                                                    int timeout_ms) {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  while (NowNs() < deadline) {
    std::ifstream in(path);
    std::map<std::string, std::string> out;
    std::string line;
    while (std::getline(in, line)) {
      const size_t eq = line.find('=');
      if (eq != std::string::npos) out[line.substr(0, eq)] = line.substr(eq + 1);
    }
    if (out.contains("rpc") && out.contains("pid")) return out;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return {};
}

RpcConn::~RpcConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool RpcConn::Connect(const std::string& endpoint, int timeout_ms) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (inet_pton(AF_INET, endpoint.substr(0, colon).c_str(), &addr.sin_addr) !=
      1) {
    return false;
  }
  addr.sin_port =
      htons(static_cast<uint16_t>(std::stoi(endpoint.substr(colon + 1))));
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  while (NowNs() < deadline) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      fd_ = fd;
      return true;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

void RpcConn::Send(const std::string& line, uint64_t tag) {
  if (wbuf_off_ == wbuf_.size()) {
    wbuf_.clear();
    wbuf_off_ = 0;
  }
  wbuf_ += line;
  wbuf_ += '\n';
  inflight_.push_back({tag, NowNs()});
  Flush();
}

void RpcConn::Flush() {
  while (!failed_ && wbuf_off_ < wbuf_.size()) {
    const ssize_t n = ::send(fd_, wbuf_.data() + wbuf_off_,
                             wbuf_.size() - wbuf_off_, MSG_NOSIGNAL);
    if (n > 0) {
      wbuf_off_ += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      failed_ = true;
    }
  }
}

void RpcConn::Read(std::vector<Reply>* out) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      rbuf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) failed_ = true;
    break;
  }
  const int64_t now = NowNs();
  size_t start = 0;
  while (true) {
    const size_t nl = rbuf_.find('\n', std::max(start, rbuf_scan_));
    if (nl == std::string::npos) break;
    if (inflight_.empty()) {
      failed_ = true;  // a reply nobody asked for
      break;
    }
    out->push_back(Reply{inflight_.front().tag, rbuf_.substr(start, nl - start),
                         inflight_.front().sent_ns, now});
    inflight_.pop_front();
    start = nl + 1;
    rbuf_scan_ = start;
  }
  rbuf_.erase(0, start);
  rbuf_scan_ = rbuf_.size();
}

void RpcConn::OnReady(short revents, std::vector<Reply>* out) {
  if (revents & POLLOUT) Flush();
  if (revents & (POLLIN | POLLHUP | POLLERR)) Read(out);
}

std::string RpcConn::Call(const std::string& line, int timeout_ms) {
  const uint64_t kCallTag = ~uint64_t{0};
  Send(line, kCallTag);
  std::vector<Reply> replies;
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1'000'000;
  while (ok() && NowNs() < deadline) {
    pollfd pfd{fd_, static_cast<short>(POLLIN | (wants_write() ? POLLOUT : 0)),
               0};
    if (::poll(&pfd, 1, 10) > 0) OnReady(pfd.revents, &replies);
    for (const Reply& r : replies) {
      if (r.tag == kCallTag) return r.text;
    }
  }
  return "";
}

int64_t StatsInt(const std::string& stats, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = stats.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(stats.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace e2ebench
