// The server child and the load generator that drives it over loopback.
//
// ServerProcess spawns `scwsc_cli --serve 0`, reads the port it prints,
// and on shutdown sends SIGINT and collects the child's exit status and
// rusage through wait4. LoadGenerator is one thread that owns every
// connection: it sends each open-loop request at its due time (pipelined,
// never waiting for replies), runs the closed loop on its connection, and
// stamps each response line as it arrives. It parses nothing while the
// clock runs beyond the request id.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <sys/resource.h>
#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"

namespace perfbench {

/// Moves the calling thread to the lowest real-time round-robin priority
/// (`on`) or back to normal scheduling. Processes and threads it starts
/// afterwards inherit the policy, so the server child and its threads run
/// at that priority too and other processes on the machine cannot preempt
/// them. Only done with at least four CPUs: the server's loop, its two
/// workers and the generator are then never more runnable threads than
/// CPUs, and round-robin never queues one behind another. False when the
/// system does not allow it (no CAP_SYS_NICE) or has fewer CPUs; the run
/// goes on at normal priority.
bool SetRealtime(bool on);

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();  // kills and reaps a child still running
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `argv` with stderr sent to `log_path` and waits (at most
  /// `timeout_s`) for the "serving ... on 127.0.0.1:PORT" line. False with
  /// `error` set when the child fails to start or never prints it.
  bool Start(const std::vector<std::string>& argv, const std::string& log_path,
             double timeout_s, std::string* error);

  int port() const { return port_; }

  /// CPU seconds the child's threads have used so far (its process CPU
  /// clock, nanosecond resolution).
  double CpuSecondsSoFar() const;

  struct Exit {
    bool clean = false;  // exited on its own with code 0 after SIGINT
    bool hung = false;   // needed SIGKILL after the grace period
    int status = 0;      // raw wait status
    double cpu_s = 0.0;  // user + system, whole lifetime
    double peak_rss_mb = 0.0;
  };
  /// SIGINT, then wait4 for up to `grace_s` seconds, then SIGKILL.
  Exit Shutdown(double grace_s);

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

/// What happened to one op.
struct OpRecord {
  bool sent = false;
  bool answered = false;
  double due_s = 0.0;   // when it was due (closed loop: when sent)
  double sent_s = 0.0;  // when the generator wrote it
  double recv_s = 0.0;  // when its response line arrived
  std::string response;
};

class LoadGenerator {
 public:
  LoadGenerator() = default;
  ~LoadGenerator();  // closes the connections
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Opens `count` persistent connections to 127.0.0.1:`port`.
  bool Connect(int port, int count, std::string* error);

  /// Sends ops [begin, end) at once and waits for every response, for at
  /// most `timeout_s`. Used for the untimed warm-up.
  bool RunBatch(const Plan& plan, std::size_t begin, std::size_t end,
                double timeout_s, std::vector<OpRecord>& records);

  /// The timed run: open-loop ops at their due times, the closed loop
  /// until `send_s` seconds have passed, then waits up to `drain_s` for
  /// outstanding responses. Calls `at_mark(now)` once: as soon as the
  /// clock passes `mark_s`, or when the run ends before that. Times are
  /// seconds since the run started.
  void Run(const Plan& plan, double send_s, double drain_s, double mark_s,
           const std::function<void(double)>& at_mark,
           std::vector<OpRecord>& records);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
  };
  void Send(Conn& conn, const std::string& line);
  /// Reads what is available on every ready connection and files
  /// complete lines into `records`; returns how many responses arrived.
  std::size_t Receive(const std::vector<std::size_t>& ready, double now,
                      std::vector<OpRecord>& records);
  /// Waits for readiness up to `timeout_s`; returns the ready connections.
  std::vector<std::size_t> Poll(double timeout_s);

  std::vector<Conn> conns_;
};

/// Seconds on the steady clock (arbitrary origin).
double NowSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
