#include "src/serve/scheduler.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/common/fault.h"
#include "src/common/stopwatch.h"
#include "src/obs/recorder.h"

namespace scwsc {
namespace serve {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double>(now - start).count();
}

}  // namespace

SolveScheduler::SolveScheduler(ThreadPool* pool, SchedulerOptions options)
    : pool_(pool),
      options_(std::move(options)),
      retry_budget_(options_.resilience.retry_budget) {
  if (options_.trace != nullptr) {
    metrics_ = &options_.trace->metrics();
  } else {
    owned_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics_ = owned_metrics_.get();
  }
  snapshot_cache_ =
      std::make_unique<SnapshotCache>(options_.snapshot_cache_bytes, metrics_);
  result_cache_ = std::make_unique<ResultCache>(
      options_.result_cache_entries == 0 ? 1 : options_.result_cache_entries,
      metrics_);
  breakers_ =
      std::make_unique<BreakerBank>(options_.resilience.breaker, metrics_);
  tenants_ = std::make_unique<TenantAdmission>(options_.tenant);
  if (options_.resilience.watchdog) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
  if (options_.telemetry.configured()) {
    pump_ = std::make_unique<TelemetryPump>(metrics_, options_.telemetry);
    pump_->SetTickSampler([this] { SampleQueueGauges(); });
  }
}

SolveScheduler::~SolveScheduler() {
  Drain();
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

Result<std::future<JobOutcome>> SolveScheduler::Enqueue(SolveJob job) {
  obs::Span enqueue_span(options_.trace, "serve.enqueue");
  if (job.request.instance == nullptr) {
    return Status::InvalidArgument("SolveJob has no instance snapshot");
  }
  // Tenant quota, before the queue lock: the bucket has its own mutex, and
  // a quota rejection must not consume queue bookkeeping. A quota-admitted
  // job can still bounce off a full queue below (it spent a token; the
  // queue-full retry hint covers that window).
  if (tenants_->enabled()) {
    const std::string& tenant = EffectiveTenant(job.request.tenant);
    Status admitted = tenants_->Admit(tenant);
    if (!admitted.ok()) {
      metrics_->counter("serve.jobs.rejected").Increment();
      metrics_->counter("serve.tenant." + tenant + ".rejected").Increment();
      obs::FlightRecorder::Global().RecordInstant("serve.reject/tenant_quota");
      return admitted;
    }
  }
  std::future<JobOutcome> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      metrics_->counter("serve.jobs.rejected").Increment();
      obs::FlightRecorder::Global().RecordInstant("serve.reject/draining");
      return Status::Cancelled(
          "scheduler is draining; new jobs are not admitted");
    }
    if (options_.max_queue_depth > 0 &&
        admitted_ >= options_.max_queue_depth) {
      metrics_->counter("serve.jobs.rejected").Increment();
      obs::FlightRecorder::Global().RecordInstant(
          "serve.reject/queue_full", static_cast<double>(admitted_));
      // The hint approximates one aging interval — long enough for a worker
      // to pop at least one job, short enough that clients keep the queue
      // warm. Machine-readable so wire frontends emit retry_after_ms.
      return Status::ResourceExhausted(
                 "scheduler queue is full (" +
                 std::to_string(options_.max_queue_depth) +
                 " jobs in flight); retry after completions drain the queue")
          .WithPayload(RetryAfterHint{
              std::max(options_.aging_interval_seconds, 0.05) * 1000.0});
    }
    PendingJob pending;
    pending.job = std::move(job);
    pending.enqueued_at = std::chrono::steady_clock::now();
    future = pending.promise.get_future();
    queue_.push_back(std::move(pending));
    ++admitted_;
    ++in_flight_;
    metrics_->counter("serve.jobs.accepted").Increment();
    metrics_->gauge("serve.queue.depth")
        .Set(static_cast<double>(queue_.size()));
    obs::FlightRecorder::Global().RecordInstant(
        "serve.enqueue", static_cast<double>(queue_.size()));
  }
  // One pool task per admitted job; the task picks the most urgent waiting
  // job at pop time, which is how priority aging takes effect. Under an
  // armed pool_task_loss fault this Submit may silently drop the task —
  // the watchdog's stale-queue sweep re-dispatches.
  pool_->Submit([this] { RunOneJob(); });
  return future;
}

void SolveScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

std::size_t SolveScheduler::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

void SolveScheduler::RunOneJob() {
  PendingJob pending;
  double queue_seconds = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return;  // defensive: one task per queued job
    // Weighted-fair tenant selection (when enabled): dispatch from the
    // tenant with the smallest served / weight among tenants with waiting
    // jobs. Fairness picks the tenant; priority aging (below) orders that
    // tenant's own jobs, so the two mechanisms compose instead of compete.
    std::string fair_tenant;
    if (tenants_->enabled()) {
      bool have = false;
      double best_norm = 0.0;
      for (const PendingJob& waiting : queue_) {
        const std::string& t = EffectiveTenant(waiting.job.request.tenant);
        const double norm = tenant_served_[t] / tenants_->WeightOf(t);
        if (!have || norm < best_norm) {
          have = true;
          best_norm = norm;
          fair_tenant = t;
        }
      }
      tenant_served_[fair_tenant] += 1.0;
    }
    // Scan-on-pop for the highest effective priority: static priority plus
    // one level per aging interval waited. O(depth) per pop is fine at the
    // depths admission control allows.
    const auto now = std::chrono::steady_clock::now();
    auto best = queue_.end();
    double best_effective = 0.0;
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (!fair_tenant.empty() &&
          EffectiveTenant(it->job.request.tenant) != fair_tenant) {
        continue;
      }
      const double waited = SecondsSince(it->enqueued_at, now);
      const double effective =
          static_cast<double>(it->job.priority) +
          (options_.aging_interval_seconds > 0.0
               ? waited / options_.aging_interval_seconds
               : 0.0);
      if (best == queue_.end() || effective > best_effective) {
        best = it;
        best_effective = effective;
      }
    }
    pending = std::move(*best);
    queue_.erase(best);
    queue_seconds = SecondsSince(pending.enqueued_at, now);
    metrics_->gauge("serve.queue.depth")
        .Set(static_cast<double>(queue_.size()));
  }
  ExecuteJob(std::move(pending), queue_seconds);
}

void SolveScheduler::SampleQueueGauges() {
  // Tick-time refresh: depth plus, per static priority, the longest wait
  // currently in the queue. Priorities that emptied since the last tick
  // are zeroed (gauges are last-write-wins, so a vanished priority would
  // otherwise freeze at its final wait forever).
  static constexpr const char* kWaitPrefix = "serve.queue.wait_seconds.p";
  for (const auto& [name, value] : metrics_->GaugeValues()) {
    if (value != 0.0 && name.rfind(kWaitPrefix, 0) == 0) {
      metrics_->gauge(name).Set(0.0);
    }
  }
  const auto now = std::chrono::steady_clock::now();
  std::map<int, double> max_wait;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    depth = queue_.size();
    for (const PendingJob& pending : queue_) {
      double& wait = max_wait[pending.job.priority];
      wait = std::max(wait, SecondsSince(pending.enqueued_at, now));
    }
  }
  metrics_->gauge("serve.queue.depth").Set(static_cast<double>(depth));
  for (const auto& [priority, wait] : max_wait) {
    metrics_->gauge(kWaitPrefix + std::to_string(priority)).Set(wait);
  }
}

void SolveScheduler::FlushTelemetry() {
  if (pump_ != nullptr) pump_->TickNow();
}

void SolveScheduler::ExecuteJob(PendingJob pending, double queue_seconds) {
  obs::Span run_span(options_.trace, "serve.run");
  JobOutcome outcome;
  outcome.queue_seconds = queue_seconds;
  outcome.label = pending.job.request.label;

  // Tenant identity for accounting. Scoped metrics are stamped whenever the
  // request names a tenant or the policy is on; a tenant-less job under the
  // default policy keeps the legacy metric surface untouched.
  const std::string tenant = EffectiveTenant(pending.job.request.tenant);
  const bool tenant_scoped =
      tenants_->enabled() || !pending.job.request.tenant.empty();

  api::SolveRequest& request = pending.job.request;
  const ResilienceOptions& res = options_.resilience;
  api::SolverRegistry& registry = api::SolverRegistry::Global();

  std::string solver_to_run = pending.job.solver;
  const api::SolverInfo* info = registry.Find(solver_to_run);
  const std::string requested_canonical =
      info != nullptr ? info->name : std::string();

  // Always-on flight-recorder span for this job, named after the solver
  // that was requested (degradation shows up as degrade/* instants inside).
  // Queue wait rides as the span's value, so the dispatch needs no separate
  // instant — the warm path records exactly one span plus the enqueue
  // instant per job, which is what keeps the recorder inside its 3%
  // throughput budget (bench/serve_throughput gates this).
  // Tenant-scoped jobs append "@tenant" to the member, so the recorder's
  // dump groups one tenant's serving history without a separate entry.
  obs::RecorderScope recorder_scope(
      "serve.run/",
      (requested_canonical.empty() ? solver_to_run : requested_canonical) +
          (tenant_scoped ? "@" + tenant : std::string()));
  recorder_scope.set_value(queue_seconds);
  if (tenant_scoped) run_span.Event("tenant/" + tenant);

  auto complete = [&](JobOutcome finished) {
    const bool succeeded =
        finished.result.ok() || finished.result.status().IsInterruption();
    metrics_->counter(succeeded ? "serve.jobs.completed" : "serve.jobs.failed")
        .Increment();
    // Per-solver latency sketch member; the telemetry pump merges the
    // family into the aggregate the latency SLO rules evaluate.
    metrics_
        ->sketch("serve.latency_seconds#" +
                 (info != nullptr ? info->name : std::string("unknown")))
        .Observe(finished.queue_seconds + finished.run_seconds);
    if (tenant_scoped) {
      // The same family#member naming as the solver sketch, so tenant-scoped
      // SLO rules read serve.tenant.latency_seconds#<tenant> and the pump's
      // per-tenant error rate reads the counter deltas.
      metrics_
          ->counter("serve.tenant." + tenant +
                    (succeeded ? ".completed" : ".failed"))
          .Increment();
      metrics_->sketch("serve.tenant.latency_seconds#" + tenant)
          .Observe(finished.queue_seconds + finished.run_seconds);
    }
    {
      // The admission slot frees before the future resolves, so a client
      // that enqueues as soon as its future is ready finds room.
      std::lock_guard<std::mutex> lock(mu_);
      --admitted_;
    }
    pending.promise.set_value(std::move(finished));
    // Before the in-flight decrement, so Drain() returning means every
    // hook has run.
    if (pending.job.on_complete) pending.job.on_complete();
    std::lock_guard<std::mutex> lock(mu_);
    if (--in_flight_ == 0) drained_cv_.notify_all();
  };

  auto degrade_to = [&](const api::SolverInfo* fallback, const char* why) {
    if (outcome.degraded_from.empty()) {
      outcome.degraded_from = requested_canonical;
    }
    info = fallback;
    solver_to_run = fallback->name;
    metrics_->counter(std::string("serve.degraded.") + why).Increment();
    metrics_->counter("serve.degraded.jobs").Increment();
    run_span.Event(std::string("degrade/") + why);
    obs::FlightRecorder::Global().RecordInstant(std::string("degrade/") + why);
  };

  // Queue-pressure degradation, decided before any cache interaction so the
  // memo key always names the solver that actually runs.
  if (info != nullptr && res.degrade_on_pressure && !res.ladder.empty() &&
      options_.max_queue_depth > 0) {
    const double pressure =
        static_cast<double>(in_flight()) /
        static_cast<double>(options_.max_queue_depth);
    if (pressure >= res.pressure_fraction) {
      if (const std::string* fb = res.ladder.FallbackFor(info->name)) {
        if (const api::SolverInfo* fb_info = registry.Find(*fb)) {
          degrade_to(fb_info, "pressure");
        }
      }
    }
  }

  // Breaker admission. An open breaker walks the ladder looking for a rung
  // whose breaker admits; when none does, the job carries the typed
  // Unavailable into the attempt loop (retryable, so a configured retry
  // policy backs off and probes again).
  Status admit = Status::OK();
  if (res.breaker.enabled && info != nullptr) {
    admit = breakers_->ForSolver(info->name).Admit();
    const api::SolverInfo* walk = info;
    while (!admit.ok()) {
      const std::string* fb = res.ladder.FallbackFor(walk->name);
      if (fb == nullptr) break;
      const api::SolverInfo* fb_info = registry.Find(*fb);
      if (fb_info == nullptr) break;
      const Status fb_admit = breakers_->ForSolver(fb_info->name).Admit();
      walk = fb_info;
      if (fb_admit.ok()) {
        degrade_to(fb_info, "breaker");
        admit = Status::OK();
      }
    }
  }

  // Deadline-free solves are deterministic: memoizable. Keys use the
  // canonical spelling of the *executing* solver so "CWSC" and "cwsc"
  // share one entry and degraded runs memoize under the fallback's name.
  const bool cacheable = info != nullptr && request.deadline.count() == 0 &&
                         options_.result_cache_entries > 0;
  ResultKey key;
  if (cacheable) {
    key = MakeResultKey(request.instance->content_hash(), info->name, request);
    // A cache hit bypasses breakers and faults entirely — serving memoized
    // results is the cheapest form of graceful degradation.
    if (std::optional<api::SolveResult> cached = result_cache_->Lookup(key)) {
      // No recorder instant here: a hit is the common, boring case on the
      // warm path, and it is already visible as a near-zero serve.run span.
      run_span.Event("cache.hit");
      if (!outcome.degraded_from.empty()) {
        cached->degraded_from = outcome.degraded_from;
      }
      outcome.result = *std::move(cached);
      outcome.from_result_cache = true;
      complete(std::move(outcome));
      return;
    }
    run_span.Event("cache.miss");
    obs::FlightRecorder::Global().RecordInstant("serve.cache.miss");
  }

  // The job deadline becomes this job's RunContext; the registry would
  // reject a request carrying both.
  const std::chrono::milliseconds deadline = request.deadline;
  request.deadline = std::chrono::milliseconds{0};
  if (request.trace == nullptr) {
    request.trace = options_.trace;  // jobs trace into the serve session
  }

  const int max_attempts = std::max(1, res.retry.max_attempts);
  double backoff_ms = 0.0;
  Stopwatch timer;
  for (;;) {
    ++outcome.attempts;
    if (!admit.ok()) {
      outcome.result = admit;  // typed Unavailable from the open breaker
    } else {
      RunContext context;
      RunContext* run_context = nullptr;
      if (deadline.count() > 0) {
        context.SetDeadline(deadline);
        run_context = &context;
      }
      // Register the in-flight context so the watchdog can trip a job
      // stuck past its deadline + grace (a solver that stops checking its
      // context, an injected stall).
      std::list<RunningJob>::iterator running_it;
      bool registered = false;
      if (run_context != nullptr) {
        std::lock_guard<std::mutex> lock(mu_);
        running_.push_back(RunningJob{
            run_context, std::chrono::steady_clock::now() + deadline, true});
        running_it = std::prev(running_.end());
        registered = true;
      }

      if (FaultPlan* plan = FaultPlan::Active();
          plan != nullptr && plan->ShouldFire(FaultPoint::kSolverDelay)) {
        metrics_->counter("serve.faults.solver_delay").Increment();
        run_span.Event("fault/solver_delay");
        obs::FlightRecorder::Global().RecordInstant("fault/solver_delay");
        std::this_thread::sleep_for(
            std::chrono::milliseconds(plan->solver_delay_ms()));
      }
      // The solver call site is exception-contained: a throwing solver (or
      // an injected throw) becomes Status::Internal, never a lost future.
      try {
        if (FaultFires(FaultPoint::kSolverError)) {
          metrics_->counter("serve.faults.solver_error").Increment();
          run_span.Event("fault/solver_error");
          obs::FlightRecorder::Global().RecordInstant("fault/solver_error");
          outcome.result = Status::Internal(
              "injected fault: solver failure (FaultPoint solver_error)");
        } else if (FaultFires(FaultPoint::kSolverThrow)) {
          metrics_->counter("serve.faults.solver_throw").Increment();
          run_span.Event("fault/solver_throw");
          obs::FlightRecorder::Global().RecordInstant("fault/solver_throw");
          throw std::runtime_error(
              "injected fault: solver exception (FaultPoint solver_throw)");
        } else {
          outcome.result = registry.Solve(solver_to_run, request, run_context);
        }
      } catch (const std::exception& e) {
        outcome.result =
            Status::Internal(std::string("solver threw: ") + e.what());
      } catch (...) {
        outcome.result =
            Status::Internal("solver threw a non-standard exception");
      }
      if (registered) {
        std::lock_guard<std::mutex> lock(mu_);
        running_.erase(running_it);
      }

      // Breaker accounting: success heals, Internal and deadline trips are
      // failures; cancel / budget trips say nothing about solver health.
      if (res.breaker.enabled && info != nullptr) {
        CircuitBreaker& breaker = breakers_->ForSolver(info->name);
        if (outcome.result.ok()) {
          breaker.RecordSuccess();
        } else {
          const StatusCode code = outcome.result.status().code();
          if (code == StatusCode::kInternal ||
              code == StatusCode::kDeadlineExceeded) {
            breaker.RecordFailure();
          }
        }
      }
    }

    if (outcome.result.ok()) break;
    const Status& status = outcome.result.status();
    if (status.IsInterruption()) break;  // typed partials are never retried
    if (!IsRetryableFailure(status)) break;
    if (outcome.attempts >= max_attempts) {
      if (res.retry.enabled()) {
        metrics_->counter("serve.retries.exhausted").Increment();
      }
      break;
    }
    if (!retry_budget_.TryAcquire(outcome.label)) {
      metrics_->counter("serve.retries.budget_denied").Increment();
      break;
    }
    // Decorrelated jitter; the draw mixes the label so concurrent retrying
    // jobs spread out instead of thundering in lockstep.
    backoff_ms = NextBackoffMs(
        res.retry, backoff_ms,
        std::hash<std::string>{}(outcome.label) ^
            static_cast<std::uint64_t>(outcome.attempts));
    metrics_->counter("serve.retries.attempted").Increment();
    run_span.Event("retry/backoff");
    obs::FlightRecorder::Global().RecordInstant("retry/backoff", backoff_ms);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
    if (res.breaker.enabled && info != nullptr) {
      admit = breakers_->ForSolver(info->name).Admit();
    }
  }
  outcome.run_seconds = timer.ElapsedSeconds();

  // Memoize the *clean* result under the executing solver's key before
  // stamping serve-layer provenance: a later non-degraded request for the
  // fallback solver must not inherit this job's degraded_from.
  if (cacheable && outcome.result.ok()) {
    result_cache_->Insert(key, *outcome.result);
  }
  if (!outcome.degraded_from.empty() && outcome.result.ok()) {
    outcome.result->degraded_from = outcome.degraded_from;
  }
  complete(std::move(outcome));
}

void SolveScheduler::WatchdogLoop() {
  const auto interval = std::chrono::duration<double>(
      std::max(options_.resilience.watchdog_interval_seconds, 0.001));
  const auto grace =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              std::max(options_.resilience.watchdog_grace_seconds, 0.0)));
  const double stale_seconds =
      std::max(options_.resilience.watchdog_stale_seconds, 0.0);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    watchdog_cv_.wait_for(lock, interval, [this] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    const auto now = std::chrono::steady_clock::now();
    // Deadline enforcement from outside the job: a solver wedged past
    // deadline + grace gets its context cancelled, so the registry call
    // returns an interruption Status and the future completes.
    for (const RunningJob& running : running_) {
      if (running.has_deadline && now > running.deadline_at + grace &&
          running.context->tripped() == TripKind::kNone) {
        running.context->RequestCancel();
        metrics_->counter("serve.watchdog.tripped").Increment();
        obs::FlightRecorder::Global().RecordInstant("watchdog/trip");
      }
    }
    // Liveness: a queue entry older than the stale bound means its
    // dispatch task never ran (injected pool task loss, or a flood);
    // submit a replacement per stale entry. Extra tasks are harmless —
    // RunOneJob returns when the queue is empty.
    std::size_t stale = 0;
    for (const PendingJob& pending : queue_) {
      if (SecondsSince(pending.enqueued_at, now) > stale_seconds) ++stale;
    }
    if (stale > 0) {
      metrics_->counter("serve.watchdog.redispatched").Increment(stale);
      obs::FlightRecorder::Global().RecordInstant(
          "watchdog/redispatch", static_cast<double>(stale));
      lock.unlock();  // Submit runs inline on a 1-lane pool; never hold mu_
      for (std::size_t i = 0; i < stale; ++i) {
        pool_->Submit([this] { RunOneJob(); });
      }
      lock.lock();
    }
  }
}

}  // namespace serve
}  // namespace scwsc
