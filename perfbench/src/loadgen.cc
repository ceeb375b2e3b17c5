#include "perfbench/src/loadgen.h"

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
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SetRealtime(bool on) {
  if (on && std::thread::hardware_concurrency() < 4) return false;
  sched_param param{};
  param.sched_priority = on ? ::sched_get_priority_min(SCHED_RR) : 0;
  return ::sched_setscheduler(0, on ? SCHED_RR : SCHED_OTHER, &param) == 0;
}

// --- ServerProcess ----------------------------------------------------------

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

bool ServerProcess::Start(const std::vector<std::string>& argv,
                          const std::string& log_path, double timeout_s,
                          std::string* error) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(out[0]);
    ::close(out[1]);
    return false;
  }
  if (pid == 0) {
    // The child must not outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(out[1], STDOUT_FILENO);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(out[1]);
  pid_ = pid;
  stdout_fd_ = out[0];

  const std::string marker = "127.0.0.1:";
  std::string seen;
  const double deadline = NowSeconds() + timeout_s;
  while (NowSeconds() < deadline) {
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int wait_ms =
        static_cast<int>(std::ceil((deadline - NowSeconds()) * 1e3));
    if (::poll(&pfd, 1, std::max(wait_ms, 1)) <= 0) continue;
    char buf[512];
    const ssize_t got = ::read(stdout_fd_, buf, sizeof(buf));
    if (got <= 0) break;  // the child exited before serving
    seen.append(buf, static_cast<std::size_t>(got));
    const std::size_t at = seen.find(marker);
    if (at != std::string::npos &&
        seen.find(' ', at) != std::string::npos) {
      port_ = std::atoi(seen.c_str() + at + marker.size());
      return port_ > 0;
    }
  }
  *error = "server did not report a port (see " + log_path + ")";
  return false;
}

double ServerProcess::CpuSecondsSoFar() const {
  clockid_t clock;
  timespec ts{};
  if (::clock_getcpuclockid(pid_, &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

ServerProcess::Exit ServerProcess::Shutdown(double grace_s) {
  Exit exit;
  if (pid_ <= 0) return exit;
  ::kill(pid_, SIGINT);
  rusage usage{};
  const double deadline = NowSeconds() + grace_s;
  pid_t reaped = 0;
  while ((reaped = ::wait4(pid_, &exit.status, WNOHANG, &usage)) == 0 &&
         NowSeconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (reaped == 0) {
    exit.hung = true;
    ::kill(pid_, SIGKILL);
    reaped = ::wait4(pid_, &exit.status, 0, &usage);
  }
  pid_ = -1;
  ::close(stdout_fd_);
  stdout_fd_ = -1;
  exit.clean = !exit.hung && reaped > 0 && WIFEXITED(exit.status) &&
               WEXITSTATUS(exit.status) == 0;
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  exit.cpu_s = secs(usage.ru_utime) + secs(usage.ru_stime);
  exit.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return exit;
}

// --- LoadGenerator ----------------------------------------------------------

LoadGenerator::~LoadGenerator() {
  for (const Conn& conn : conns_) ::close(conn.fd);
}

bool LoadGenerator::Connect(int port, int count, std::string* error) {
  for (int i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    conns_.push_back(Conn{fd, {}, {}});
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  return true;
}

void LoadGenerator::Send(Conn& conn, const std::string& line) {
  conn.out += line;
  while (!conn.out.empty()) {
    const ssize_t sent =
        ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (sent <= 0) break;  // EAGAIN: the rest goes out when POLLOUT fires
    conn.out.erase(0, static_cast<std::size_t>(sent));
  }
}

std::vector<std::size_t> LoadGenerator::Poll(double timeout_s) {
  std::vector<pollfd> fds;
  for (const Conn& conn : conns_) {
    fds.push_back(pollfd{
        conn.fd,
        static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)), 0});
  }
  timespec ts{};
  timeout_s = std::max(timeout_s, 0.0);
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
  std::vector<std::size_t> ready;
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return ready;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & POLLOUT) != 0) Send(conns_[i], "");
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      ready.push_back(i);
    }
  }
  return ready;
}

std::size_t LoadGenerator::Receive(const std::vector<std::size_t>& ready,
                                   double now,
                                   std::vector<OpRecord>& records) {
  std::size_t answered = 0;
  for (const std::size_t c : ready) {
    Conn& conn = conns_[c];
    char buf[16384];
    ssize_t got;
    while ((got = ::recv(conn.fd, buf, sizeof(buf), 0)) > 0) {
      conn.in.append(buf, static_cast<std::size_t>(got));
    }
    std::size_t start = 0, newline;
    while ((newline = conn.in.find('\n', start)) != std::string::npos) {
      // Responses echo the request id "r<index>".
      const std::size_t id = conn.in.find("\"id\":\"r", start);
      if (id != std::string::npos && id < newline) {
        const std::size_t index = std::strtoull(
            conn.in.c_str() + id + 7, nullptr, 10);
        if (index < records.size() && records[index].sent &&
            !records[index].answered) {
          OpRecord& record = records[index];
          record.answered = true;
          record.recv_s = now;
          record.response = conn.in.substr(start, newline - start);
          ++answered;
        }
      }
      start = newline + 1;
    }
    conn.in.erase(0, start);
  }
  return answered;
}

bool LoadGenerator::RunBatch(const Plan& plan, std::size_t begin,
                             std::size_t end, double timeout_s,
                             std::vector<OpRecord>& records) {
  const double t0 = NowSeconds();
  for (std::size_t i = begin; i < end; ++i) {
    const Op& op = plan.ops[i];
    records[i].sent = true;
    records[i].due_s = records[i].sent_s = NowSeconds() - t0;
    Send(conns_[static_cast<std::size_t>(op.conn)], op.line);
  }
  std::size_t outstanding = end - begin;
  while (outstanding > 0 && NowSeconds() - t0 < timeout_s) {
    const auto ready = Poll(0.05);
    outstanding -= Receive(ready, NowSeconds() - t0, records);
  }
  return outstanding == 0;
}

void LoadGenerator::Run(const Plan& plan, double send_s, double drain_s,
                        double mark_s,
                        const std::function<void(double)>& at_mark,
                        std::vector<OpRecord>& records) {
  const double t0 = NowSeconds();
  std::size_t next_open = plan.first_open;
  std::size_t next_closed = plan.first_closed;
  std::size_t closed_waiting = plan.ops.size();  // none in flight
  std::size_t outstanding = 0;
  bool marked = false;
  for (;;) {
    double now = NowSeconds() - t0;
    if (!marked && now >= mark_s) {
      at_mark(now);
      marked = true;
    }
    while (next_open < plan.first_closed &&
           plan.ops[next_open].due_s <= now) {
      const Op& op = plan.ops[next_open];
      OpRecord& record = records[next_open];
      record.sent = true;
      record.due_s = op.due_s;
      record.sent_s = now;
      Send(conns_[static_cast<std::size_t>(op.conn)], op.line);
      ++outstanding;
      ++next_open;
    }
    if (closed_waiting < plan.ops.size() && records[closed_waiting].answered) {
      closed_waiting = plan.ops.size();
    }
    if (closed_waiting == plan.ops.size() && now < send_s &&
        next_closed < plan.ops.size()) {
      const Op& op = plan.ops[next_closed];
      OpRecord& record = records[next_closed];
      record.sent = true;
      record.due_s = record.sent_s = now;
      Send(conns_[static_cast<std::size_t>(op.conn)], op.line);
      ++outstanding;
      closed_waiting = next_closed++;
    }
    const bool sending = next_open < plan.first_closed ||
                         (now < send_s && next_closed < plan.ops.size());
    if (!sending && (outstanding == 0 || now > send_s + drain_s)) break;
    double wait = 0.05;
    if (next_open < plan.first_closed) {
      wait = std::min(wait, plan.ops[next_open].due_s - now);
    }
    if (!marked) wait = std::min(wait, mark_s - now);
    const auto ready = Poll(wait);
    now = NowSeconds() - t0;
    outstanding -= Receive(ready, now, records);
  }
  if (!marked) at_mark(NowSeconds() - t0);
}

}  // namespace perfbench
