// SolveScheduler: the serving seam of the library. Frontends hand it typed
// SolveJobs (solver name + SolveRequest + priority); it admits or rejects
// them against a bounded queue, runs them concurrently on a shared
// ThreadPool against cached snapshots, memoizes deterministic solves, and
// returns futures.
//
// Admission control:
//   - Bounded queue depth: Enqueue returns ResourceExhausted (typed
//     backpressure, never blocking) when queue + running reaches
//     max_queue_depth. A job's slot frees before its future resolves, so
//     a client that re-enqueues on completion is never refused for it.
//   - Deadlines: a job's request.deadline is moved onto the scheduler's
//     per-job RunContext, so deadline trips surface exactly like direct
//     registry calls — an interruption Status carrying the partial
//     SolveResult payload.
//   - Priority aging: workers pop the job with the highest *effective*
//     priority (static priority + seconds-waited / aging_interval), so a
//     flood of high-priority interactive jobs cannot starve batch jobs —
//     every waiting job eventually outranks fresh arrivals.
//   - Graceful drain: Drain() (and the destructor) stops admission and
//     waits for every accepted job to finish; submitted futures always
//     complete.
//
// Caching: the scheduler keys each job on its snapshot's content hash
// (stamped at snapshot construction) and consults its ResultCache before
// dispatch.
// Deadline-free jobs are deterministic — every registered algorithm is,
// given its options (LP rounding is seeded) — so they are served from cache
// when the (snapshot, solver, k, ŝ, canonical options) key matches;
// deadline-bearing jobs bypass the cache both ways since their partials
// depend on timing. A SnapshotCache is owned alongside for frontends to
// dedupe instance construction (the batch front end keys table loads by
// content).
//
// Resilience (opt-in; defaults are inert and bit-identical to a scheduler
// without them — see serve/resilience.h):
//   - Retries: per-job attempt loop re-running retryable failures
//     (Internal / Unavailable) up to RetryPolicy::max_attempts with
//     decorrelated-jitter backoff, gated by a per-label token-bucket
//     RetryBudget so one tenant's failures cannot storm the pool.
//   - Circuit breakers: one breaker per canonical solver name; consecutive
//     Internal/deadline failures open it, open-state jobs get a typed
//     Unavailable with retry-after (or degrade, below), probes half-open it
//     back.
//   - Degradation: a DegradationLadder substitutes the next-cheaper
//     registered solver under queue pressure or an open breaker; the
//     substitution is stamped into SolveResult::degraded_from and the
//     outcome, never into the memoized cache entry.
//   - Watchdog: a background thread trips RunContexts of jobs stuck past
//     deadline + grace and re-submits pool tasks for queue entries no
//     worker claimed (the recovery path for injected ThreadPool task
//     loss), so every admitted future completes even under chaos.
//
// Fault injection (src/common/fault.h): with an installed FaultPlan the
// scheduler's solve call site can be told to fail (solver_error), throw
// (solver_throw — contained and converted to Status::Internal) or stall
// (solver_delay); the caches and the pool carry their own points.
//
// Observability: spans serve.enqueue / serve.run per job and counters
// serve.jobs.{accepted,rejected,completed,failed}, serve.result_cache.*,
// serve.snapshot_cache.*, serve.retries.*, serve.breaker.*,
// serve.degraded.*, serve.watchdog.*, serve.faults.* through the session's
// MetricRegistry; retry/degrade/fault moments appear as span events
// ("retry/backoff", "degrade/breaker", "fault/solver_error").

#ifndef SCWSC_SERVE_SCHEDULER_H_
#define SCWSC_SERVE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/api/registry.h"
#include "src/common/run_context.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/cache.h"
#include "src/serve/resilience.h"
#include "src/serve/telemetry.h"
#include "src/serve/tenant.h"

namespace scwsc {
namespace serve {

/// One unit of work for the scheduler.
struct SolveJob {
  std::string solver;         // registry name (case-insensitive)
  api::SolveRequest request;  // deadline and label ride inside
  /// Larger = more urgent. Interactive frontends use higher priorities;
  /// aging guarantees lower-priority batch jobs still run.
  int priority = 0;
  /// Runs once on the worker that completes the job, right after its
  /// future becomes ready — for every admitted job (cache hit, miss,
  /// failure, interruption, degradation, watchdog re-dispatch). Never runs
  /// when Enqueue refuses the job. Event-driven frontends use it to wake
  /// their loop instead of polling futures; it must be cheap and must not
  /// throw.
  std::function<void()> on_complete;
};

/// What a job's future resolves to.
struct JobOutcome {
  /// The solve outcome — including interruption Statuses carrying partial
  /// SolveResult payloads, exactly as the registry returns them.
  Result<api::SolveResult> result = Status::Internal("job never ran");
  bool from_result_cache = false;
  double queue_seconds = 0.0;  // admission -> dispatch
  double run_seconds = 0.0;    // dispatch -> completion (0 on cache hit)
  std::string label;           // echoed from the request
  /// Solve attempts executed (0 on a cache hit, 1 for a plain run, more
  /// when the retry policy re-ran a retryable failure).
  int attempts = 0;
  /// Canonical name of the originally requested solver when degradation
  /// substituted a cheaper one; empty otherwise (mirrors
  /// SolveResult::degraded_from so error outcomes carry it too).
  std::string degraded_from;
};

struct SchedulerOptions {
  /// Jobs queued or running; Enqueue beyond this is ResourceExhausted.
  /// 0 = unbounded.
  std::size_t max_queue_depth = 256;
  /// Seconds of waiting that add one effective priority level.
  double aging_interval_seconds = 0.25;
  /// Result-cache entries (deterministic solves memoized). 0 disables.
  std::size_t result_cache_entries = 512;
  /// Snapshot-cache byte budget for the cache owned by the scheduler.
  std::size_t snapshot_cache_bytes = 256ull << 20;
  /// Optional trace session: serve.enqueue/serve.run spans and all serve.*
  /// counters go here. The scheduler keeps its own MetricRegistry when
  /// null, so counters are always available via metrics().
  obs::TraceSession* trace = nullptr;
  /// Recovery policies (retries, breakers, degradation, watchdog). The
  /// default is inert — see serve/resilience.h.
  ResilienceOptions resilience;
  /// Continuous telemetry (JSONL time series, Prometheus exposition, SLO
  /// rules). Inert unless configured() — see serve/telemetry.h. The pump's
  /// tick sampler refreshes serve.queue.depth and the per-priority
  /// serve.queue.wait_seconds.p<N> gauges.
  TelemetryOptions telemetry;
  /// Multi-tenant admission quotas and weighted-fair dequeue (see
  /// serve/tenant.h). The default is inert: dequeue order and admission are
  /// bit-identical to a scheduler without tenancy.
  TenantPolicy tenant;
};

class SolveScheduler {
 public:
  /// `pool` must outlive the scheduler. Jobs run as pool tasks; solvers
  /// that parallelize internally create their own pools, so scheduler
  /// concurrency and solver concurrency never deadlock each other.
  SolveScheduler(ThreadPool* pool, SchedulerOptions options = {});

  SolveScheduler(const SolveScheduler&) = delete;
  SolveScheduler& operator=(const SolveScheduler&) = delete;

  /// Drains: stops admission and waits for accepted jobs to finish.
  ~SolveScheduler();

  /// Admits a job, returning the future its outcome will resolve on.
  /// ResourceExhausted when the queue is full (typed backpressure),
  /// Cancelled after Drain(). Never blocks on queue space.
  Result<std::future<JobOutcome>> Enqueue(SolveJob job);

  /// Stops admission, waits until every accepted job has completed.
  /// Idempotent.
  void Drain();

  /// Counters: serve.jobs.*, serve.result_cache.*, serve.snapshot_cache.*.
  /// The session's registry when options.trace was set, else internal.
  obs::MetricRegistry& metrics() { return *metrics_; }

  SnapshotCache& snapshot_cache() { return *snapshot_cache_; }
  ResultCache& result_cache() { return *result_cache_; }

  /// Jobs admitted but not yet completed (queued + running, or finishing:
  /// future resolved, completion hook not yet returned).
  std::size_t in_flight() const;

  /// The per-solver circuit breakers (visible for tests and frontends that
  /// report breaker state). Always constructed; inert unless
  /// options.resilience.breaker.enabled.
  BreakerBank& breakers() { return *breakers_; }

  /// The telemetry pump, or nullptr when options.telemetry is inert.
  TelemetryPump* telemetry() { return pump_.get(); }

  /// Forces one telemetry tick so reports read final counters (including
  /// last-interval SLO evaluations). No-op without a pump.
  void FlushTelemetry();

 private:
  struct PendingJob {
    SolveJob job;
    std::promise<JobOutcome> promise;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  /// One running job's interruption handle, registered while the registry
  /// call is in flight so the watchdog can trip it (RequestCancel needs
  /// the non-const context).
  struct RunningJob {
    RunContext* context = nullptr;
    std::chrono::steady_clock::time_point deadline_at;
    bool has_deadline = false;
  };

  /// Worker-side: pops the job with the highest effective priority and
  /// runs it to completion (cache lookup, attempt loop with retries /
  /// breaker / degradation, cache fill).
  void RunOneJob();

  /// Completes one popped job: resolves degradation, consults the result
  /// cache, runs the attempt loop, fills the outcome and the promise.
  void ExecuteJob(PendingJob pending, double queue_seconds);

  /// Background thread body: trips overdue running jobs and re-dispatches
  /// stale queue entries (see ResilienceOptions::watchdog).
  void WatchdogLoop();

  /// Telemetry tick sampler: refreshes serve.queue.depth and the
  /// per-priority wait gauges from the live queue.
  void SampleQueueGauges();

  ThreadPool* const pool_;
  const SchedulerOptions options_;
  obs::MetricRegistry* metrics_;  // session registry or owned_metrics_
  std::unique_ptr<obs::MetricRegistry> owned_metrics_;
  std::unique_ptr<SnapshotCache> snapshot_cache_;
  std::unique_ptr<ResultCache> result_cache_;
  std::unique_ptr<BreakerBank> breakers_;
  RetryBudget retry_budget_;
  std::unique_ptr<TenantAdmission> tenants_;

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;  // fires when in_flight_ hits 0
  std::list<PendingJob> queue_;
  std::list<RunningJob> running_;  // registry calls currently in flight
  // Admission slots held: queued + running, freed before the job's future
  // resolves. max_queue_depth bounds this count.
  std::size_t admitted_ = 0;
  // Admitted jobs whose completion (future and on_complete hook) has not
  // finished; Drain() waits for it to reach 0.
  std::size_t in_flight_ = 0;
  bool draining_ = false;
  /// Weighted-fair accounting: jobs dispatched per tenant. Only written
  /// when the tenant policy is enabled; guarded by mu_.
  std::map<std::string, double> tenant_served_;

  // Watchdog thread state (only started when options.resilience.watchdog).
  std::condition_variable watchdog_cv_;  // waits on mu_
  bool watchdog_stop_ = false;
  std::thread watchdog_;

  // Declared last: the pump's destructor stops its tick thread (which
  // touches metrics_ and the queue via the sampler) before anything above
  // is torn down.
  std::unique_ptr<TelemetryPump> pump_;
};

}  // namespace serve
}  // namespace scwsc

#endif  // SCWSC_SERVE_SCHEDULER_H_
