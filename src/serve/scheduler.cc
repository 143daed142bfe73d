#include "serve/scheduler.h"

#include <utility>

#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace freehgc::serve {

Result<CondenseReply>& RequestTicket::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return result_.has_value(); });
  return *result_;
}

bool RequestTicket::Done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return result_.has_value();
}

RequestScheduler::Metrics::Metrics(obs::MetricsRegistry& reg)
    : queue_depth(reg.GetGauge("serve.queue_depth")),
      inflight(reg.GetGauge("serve.inflight")),
      admitted(reg.GetCounter("serve.requests.admitted")),
      completed(reg.GetCounter("serve.requests.completed")),
      failed(reg.GetCounter("serve.requests.failed")),
      shed(reg.GetCounter("serve.requests.shed")),
      shed_budget(reg.GetCounter("serve.shed.budget")),
      shed_slo(reg.GetCounter("serve.shed.slo")),
      cancelled(reg.GetCounter("serve.requests.cancelled")),
      expired(reg.GetCounter("serve.requests.expired")),
      coalesced(reg.GetCounter("serve.coalesced")),
      aged(reg.GetCounter("serve.aged")),
      queue_ns(reg.GetHistogram("serve.latency.queue_ns")),
      exec_ns(reg.GetHistogram("serve.latency.exec_ns")),
      total_ns(reg.GetHistogram("serve.latency.total_ns")) {}

RequestScheduler::RequestScheduler(const SchedulerOptions& options,
                                   WorkFn work)
    : m_(metrics_),
      queue_capacity_(options.queue_capacity > 0 ? options.queue_capacity
                                                 : 1),
      work_(std::move(work)) {
  int slots = options.slots < 1 ? 1 : options.slots;
  max_concurrent_ = options.max_concurrent > 0
                        ? options.max_concurrent
                        : exec::ConcurrentSlotBudget(slots);
  if (max_concurrent_ > slots) max_concurrent_ = slots;
  if (options.aging_quantum_ms > 0) {
    aging_quantum_ns_ = options.aging_quantum_ms * 1'000'000;
  }
  if (options.slo_ms > 0) slo_ns_ = options.slo_ms * 1'000'000;
  // One pool for every slot: a request runs on its slot's thread plus
  // whichever of the threads_per_slot - 1 shared helpers are idle.
  pool_ = std::make_unique<exec::ThreadPool>(
      options.threads_per_slot > 0 ? options.threads_per_slot
                                   : exec::ThreadsPerSlot(slots));
  slot_exec_.reserve(static_cast<size_t>(slots));
  workers_.reserve(static_cast<size_t>(slots));
  for (int s = 0; s < slots; ++s) {
    slot_exec_.push_back(std::make_unique<exec::ExecContext>(*pool_));
  }
  for (int s = 0; s < slots; ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
}

RequestScheduler::~RequestScheduler() { Shutdown(ShutdownMode::kDrain); }

void RequestScheduler::set_telemetry(obs::AccessLog* access_log,
                                     AnnotateFn annotate) {
  std::lock_guard<std::mutex> lock(mu_);
  access_log_ = access_log;
  annotate_ = std::move(annotate);
}

void RequestScheduler::set_admission_guard(AdmissionGuard guard) {
  std::lock_guard<std::mutex> lock(mu_);
  admission_guard_ = std::move(guard);
}

void RequestScheduler::set_coalesce_key(CoalesceKeyFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  coalesce_key_fn_ = std::move(fn);
}

Result<TicketPtr> RequestScheduler::Submit(CondenseRequest request) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!accepting_) {
    return Status::Unavailable("scheduler is shutting down");
  }
  // Coalescing comes first: a duplicate of in-flight work needs no queue
  // slot and cannot be shed — it rides the leader that is already paying
  // for the execution. A non-duplicate keeps its key and becomes the
  // leader other submissions can attach to (registered after admission).
  uint64_t coalesce_key = 0;
  if (coalesce_key_fn_) {
    coalesce_key = coalesce_key_fn_(request);
    if (coalesce_key != 0) {
      auto it = inflight_by_key_.find(coalesce_key);
      if (it != inflight_by_key_.end()) {
        const uint64_t id = next_id_++;
        auto follower = TicketPtr(new RequestTicket(id, std::move(request)));
        follower->submit_ns_ = obs::NowNs();
        it->second->followers_.push_back(follower);
        m_.admitted.Increment();
        m_.coalesced.Increment();
        return follower;
      }
    }
  }
  if (static_cast<int>(queue_.size()) >= queue_capacity_) {
    m_.shed.Increment();
    // Shed requests get an id too: the access log accounts for every
    // admission decision, not just the admitted ones.
    const uint64_t id = next_id_++;
    Status status = Status::ResourceExhausted(
        StrFormat("admission queue full (%d queued, capacity %d)",
                  static_cast<int>(queue_.size()), queue_capacity_));
    lock.unlock();
    RecordTerminal(id, /*slot=*/-1, request, obs::NowNs(), /*queue_ns=*/0,
                   /*exec_ns=*/0, obs::RequestOutcome::kShed,
                   status.message(), /*evalctx_hit=*/false,
                   /*fingerprint=*/0);
    return status;
  }
  if (admission_guard_) {
    Status guard = admission_guard_();
    if (!guard.ok()) {
      m_.shed.Increment();
      m_.shed_budget.Increment();
      const uint64_t id = next_id_++;
      lock.unlock();
      RecordTerminal(id, /*slot=*/-1, request, obs::NowNs(), /*queue_ns=*/0,
                     /*exec_ns=*/0, obs::RequestOutcome::kShed,
                     guard.message(), /*evalctx_hit=*/false,
                     /*fingerprint=*/0);
      return guard;
    }
  }
  // SLO-aware shedding: predict this request's queue wait from the
  // backlog ahead of it draining at the EWMA of recent execution times.
  // A request that was always going to miss the SLO gets a fast
  // kResourceExhausted now instead of a late reply (or a queue-deadline
  // expiry) later. The request's own execution time is deliberately
  // excluded — admission control can shorten waits, not executions, and
  // counting it would shed *all* traffic the moment the mean execution
  // alone exceeds the SLO, even at an empty queue.
  if (slo_ns_ > 0 && ewma_exec_ns_ > 0.0) {
    const double predicted_ns = static_cast<double>(queue_.size()) *
                                ewma_exec_ns_ /
                                static_cast<double>(max_concurrent_);
    if (predicted_ns > static_cast<double>(slo_ns_)) {
      m_.shed.Increment();
      m_.shed_slo.Increment();
      const uint64_t id = next_id_++;
      Status status = Status::ResourceExhausted(StrFormat(
          "SLO shed: predicted queue wait %.1f ms exceeds the %lld ms SLO "
          "(%d queued, %.1f ms mean execution)",
          predicted_ns * 1e-6, static_cast<long long>(slo_ns_ / 1'000'000),
          static_cast<int>(queue_.size()), ewma_exec_ns_ * 1e-6));
      lock.unlock();
      RecordTerminal(id, /*slot=*/-1, request, obs::NowNs(), /*queue_ns=*/0,
                     /*exec_ns=*/0, obs::RequestOutcome::kShed,
                     status.message(), /*evalctx_hit=*/false,
                     /*fingerprint=*/0);
      return status;
    }
  }
  const uint64_t id = next_id_++;
  const int priority = request.priority;
  const int64_t deadline_ms = request.deadline_ms;
  auto ticket =
      TicketPtr(new RequestTicket(id, std::move(request)));
  ticket->submit_ns_ = obs::NowNs();
  if (deadline_ms > 0) {
    ticket->deadline_ns_ = ticket->submit_ns_ + deadline_ms * 1'000'000;
  }
  if (coalesce_key != 0) {
    ticket->coalesce_key_ = coalesce_key;
    inflight_by_key_.emplace(coalesce_key, ticket);
  }
  queue_.emplace(std::make_pair(priority, id), ticket);
  m_.admitted.Increment();
  UpdateGauges();
  lock.unlock();
  work_cv_.notify_one();
  return ticket;
}

bool RequestScheduler::Cancel(uint64_t id) {
  TicketPtr ticket;
  std::vector<TicketPtr> followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->second->id() == id) {
        ticket = it->second;
        queue_.erase(it);
        followers = TakeFollowers(ticket);
        m_.cancelled.Increment();
        UpdateGauges();
        break;
      }
    }
  }
  if (!ticket) return false;
  Status status = Status::Cancelled(
      StrFormat("request %llu cancelled while queued",
                static_cast<unsigned long long>(id)));
  RecordTerminal(ticket->id(), /*slot=*/-1, ticket->request(),
                 ticket->submit_ns_, obs::NowNs() - ticket->submit_ns_,
                 /*exec_ns=*/0, obs::RequestOutcome::kCancelled,
                 status.message(), /*evalctx_hit=*/false, /*fingerprint=*/0);
  FinishFollowers(followers, Result<CondenseReply>(status), /*slot=*/-1,
                  obs::RequestOutcome::kCancelled, status.message());
  Complete(ticket, std::move(status));
  drain_cv_.notify_all();
  return true;
}

void RequestScheduler::Shutdown(ShutdownMode mode) {
  std::vector<TicketPtr> rejected;
  std::vector<std::vector<TicketPtr>> rejected_followers;
  {
    std::unique_lock<std::mutex> lock(mu_);
    accepting_ = false;
    if (mode == ShutdownMode::kCancelQueued) {
      for (auto& [key, ticket] : queue_) {
        rejected.push_back(ticket);
        rejected_followers.push_back(TakeFollowers(ticket));
        m_.cancelled.Increment();
      }
      queue_.clear();
      UpdateGauges();
    }
  }
  for (size_t i = 0; i < rejected.size(); ++i) {
    auto& ticket = rejected[i];
    Status status =
        Status::Unavailable("scheduler shut down before the request ran");
    RecordTerminal(ticket->id(), /*slot=*/-1, ticket->request(),
                   ticket->submit_ns_, obs::NowNs() - ticket->submit_ns_,
                   /*exec_ns=*/0, obs::RequestOutcome::kCancelled,
                   status.message(), /*evalctx_hit=*/false,
                   /*fingerprint=*/0);
    FinishFollowers(rejected_followers[i], Result<CondenseReply>(status),
                    /*slot=*/-1, obs::RequestOutcome::kCancelled,
                    status.message());
    Complete(ticket, std::move(status));
  }
  {
    // Drain: wait until queued work is gone and every slot is idle, then
    // tell the workers to exit.
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [&] {
      return queue_.empty() && inflight_ == 0;
    });
    if (stop_) return;  // an earlier Shutdown already joined the workers
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

SchedulerStats RequestScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats s;
  s.admitted = m_.admitted.Value();
  s.completed = m_.completed.Value();
  s.failed = m_.failed.Value();
  s.shed = m_.shed.Value();
  s.shed_budget = m_.shed_budget.Value();
  s.shed_slo = m_.shed_slo.Value();
  s.cancelled = m_.cancelled.Value();
  s.expired = m_.expired.Value();
  s.coalesced = m_.coalesced.Value();
  s.aged = m_.aged.Value();
  s.queue_depth = m_.queue_depth.Value();
  s.inflight = m_.inflight.Value();
  return s;
}

void RequestScheduler::WorkerLoop(int slot) {
  obs::SetCurrentThreadNameIfUnset("slot-" + std::to_string(slot));
  exec::ExecContext* ctx = slot_exec_[static_cast<size_t>(slot)].get();
  for (;;) {
    TicketPtr ticket;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Dispatch tokens: even with the queue non-empty, a slot stays
      // parked while max_concurrent_ requests are already executing —
      // that is what keeps S > cores slots from time-slicing the cores.
      work_cv_.wait(lock, [&] {
        return stop_ ||
               (!queue_.empty() && inflight_ < max_concurrent_);
      });
      if (stop_ && queue_.empty()) return;
      // Dequeue, shedding queued requests whose deadline already passed —
      // this is the point that guarantees an expired request never runs.
      while (!queue_.empty() && inflight_ < max_concurrent_) {
        auto it = PickNext();
        TicketPtr head = it->second;
        queue_.erase(it);
        if (head->deadline_ns_ > 0 && obs::NowNs() > head->deadline_ns_) {
          m_.expired.Increment();
          std::vector<TicketPtr> followers = TakeFollowers(head);
          UpdateGauges();
          lock.unlock();
          Status status = Status::DeadlineExceeded(StrFormat(
              "request %llu expired after %lld ms in the queue",
              static_cast<unsigned long long>(head->id()),
              static_cast<long long>(head->request().deadline_ms)));
          RecordTerminal(head->id(), /*slot=*/-1, head->request(),
                         head->submit_ns_, obs::NowNs() - head->submit_ns_,
                         /*exec_ns=*/0, obs::RequestOutcome::kExpired,
                         status.message(), /*evalctx_hit=*/false,
                         /*fingerprint=*/0);
          FinishFollowers(followers, Result<CondenseReply>(status),
                          /*slot=*/-1, obs::RequestOutcome::kExpired,
                          status.message());
          Complete(head, std::move(status));
          drain_cv_.notify_all();
          lock.lock();
          continue;
        }
        ticket = std::move(head);
        break;
      }
      if (!ticket) continue;
      ++inflight_;
      UpdateGauges();
    }

    const int64_t start_ns = obs::NowNs();
    const int64_t queue_ns = start_ns - ticket->submit_ns_;
    const RequestContext rctx{ticket->id(), slot, ctx};
    Result<CondenseReply> result = [&] {
      // Every span the body records (eval-context build, kernels,
      // ParallelFor work) carries this request's id.
      obs::ScopedRequestId req_scope(rctx.id);
      FREEHGC_TRACE_SPAN("serve.request");
      return work_(ticket->request(), rctx);
    }();
    const int64_t end_ns = obs::NowNs();
    const int64_t exec_ns = end_ns - start_ns;
    if (result.ok()) {
      result.value().request_id = ticket->id();
      result.value().queue_seconds = static_cast<double>(queue_ns) * 1e-9;
      result.value().total_seconds =
          static_cast<double>(end_ns - ticket->submit_ns_) * 1e-9;
    }
    m_.queue_ns.Observe(queue_ns);
    m_.exec_ns.Observe(exec_ns);
    m_.total_ns.Observe(end_ns - ticket->submit_ns_);

    std::vector<TicketPtr> followers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
      (result.ok() ? m_.completed : m_.failed).Increment();
      // Feed the SLO admission predictor with this execution.
      ewma_exec_ns_ = ewma_exec_ns_ == 0.0
                          ? static_cast<double>(exec_ns)
                          : 0.8 * ewma_exec_ns_ +
                                0.2 * static_cast<double>(exec_ns);
      followers = TakeFollowers(ticket);
      UpdateGauges();
    }
    // The dispatch token this request held is free again.
    work_cv_.notify_all();
    if (result.ok()) {
      const CondenseReply& reply = result.value();
      RecordTerminal(ticket->id(), slot, ticket->request(),
                     ticket->submit_ns_, queue_ns, exec_ns,
                     obs::RequestOutcome::kOk, /*reason=*/{},
                     reply.evalctx_hit, reply.graph_fingerprint);
      FinishFollowers(followers, result, slot, obs::RequestOutcome::kOk,
                      "coalesced");
    } else {
      RecordTerminal(ticket->id(), slot, ticket->request(),
                     ticket->submit_ns_, queue_ns, exec_ns,
                     obs::RequestOutcome::kError, result.status().message(),
                     /*evalctx_hit=*/false, /*fingerprint=*/0);
      FinishFollowers(followers, result, slot, obs::RequestOutcome::kError,
                      result.status().message());
    }
    Complete(ticket, std::move(result));
    drain_cv_.notify_all();
  }
}

std::map<std::pair<int, uint64_t>, TicketPtr>::iterator
RequestScheduler::PickNext() {
  auto best = queue_.begin();
  if (aging_quantum_ns_ <= 0 || queue_.size() <= 1) return best;
  const int64_t now = obs::NowNs();
  // Effective priority = static priority − whole quanta waited. The map
  // is ordered by (priority, seq), so a plain begin() is already the best
  // *unaged* pick; the scan only matters when waiting demoted-priority
  // work has aged past fresher, nominally-higher-priority work. Ties on
  // effective priority go to the earlier admission (lower seq) — aged
  // work at parity beats fresh arrivals. O(queue) per dequeue; the queue
  // is admission-bounded.
  auto effective = [&](const TicketPtr& t, int priority) -> int64_t {
    const int64_t waited = now - t->submit_ns_;
    return static_cast<int64_t>(priority) - waited / aging_quantum_ns_;
  };
  int64_t best_eff = effective(best->second, best->first.first);
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
    const int64_t eff = effective(it->second, it->first.first);
    if (eff < best_eff ||
        (eff == best_eff && it->first.second < best->first.second)) {
      best = it;
      best_eff = eff;
    }
  }
  if (best != queue_.begin()) m_.aged.Increment();
  return best;
}

std::vector<TicketPtr> RequestScheduler::TakeFollowers(
    const TicketPtr& leader) {
  std::vector<TicketPtr> followers;
  followers.swap(leader->followers_);
  if (leader->coalesce_key_ != 0) {
    auto it = inflight_by_key_.find(leader->coalesce_key_);
    if (it != inflight_by_key_.end() && it->second == leader) {
      inflight_by_key_.erase(it);
    }
  }
  return followers;
}

void RequestScheduler::FinishFollowers(
    const std::vector<TicketPtr>& followers,
    const Result<CondenseReply>& result, int slot,
    obs::RequestOutcome outcome, std::string_view reason) {
  if (followers.empty()) return;
  obs::Counter& terminal =
      result.ok() ? m_.completed
      : outcome == obs::RequestOutcome::kError   ? m_.failed
      : outcome == obs::RequestOutcome::kExpired ? m_.expired
                                                 : m_.cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    terminal.Add(static_cast<int64_t>(followers.size()));
  }
  for (const auto& follower : followers) {
    const int64_t queue_ns = obs::NowNs() - follower->submit_ns_;
    if (result.ok()) {
      // A follower waited but never executed: it lands in the queue and
      // total latency histograms with exec_ns = 0 (no exec observation —
      // serve.latency.exec_ns counts real executions only).
      m_.queue_ns.Observe(queue_ns);
      m_.total_ns.Observe(queue_ns);
    }
    RecordTerminal(follower->id(), slot, follower->request(),
                   follower->submit_ns_, queue_ns, /*exec_ns=*/0, outcome,
                   reason, result.ok() ? result.value().evalctx_hit : false,
                   result.ok() ? result.value().graph_fingerprint : 0);
    // Every follower gets a *copy* of the leader's terminal result —
    // bit-identical reply bytes for the coalesced duplicates.
    Complete(follower, result);
  }
  drain_cv_.notify_all();
}

void RequestScheduler::RecordTerminal(
    uint64_t id, int slot, const CondenseRequest& request, int64_t submit_ns,
    int64_t queue_ns, int64_t exec_ns, obs::RequestOutcome outcome,
    std::string_view reason, bool evalctx_hit, uint64_t fingerprint) {
  obs::FlightRecord flight;
  flight.id = id;
  flight.fingerprint = fingerprint;
  flight.submit_ns = submit_ns;
  flight.queue_ns = queue_ns;
  flight.exec_ns = exec_ns;
  flight.slot = slot;
  flight.priority = request.priority;
  flight.outcome = outcome;
  flight.evalctx_hit = evalctx_hit;
  flight.set_graph(request.graph);
  flight.set_method(request.method);
  obs::FlightRecorder::Global().Record(flight);

  if (access_log_ == nullptr || !access_log_->enabled()) return;
  obs::AccessRecord rec;
  rec.id = id;
  rec.slot = slot;
  rec.graph = request.graph;
  rec.method = request.method;
  rec.fingerprint = fingerprint;
  rec.priority = request.priority;
  rec.queue_ns = queue_ns;
  rec.exec_ns = exec_ns;
  rec.total_ns = queue_ns + exec_ns;
  rec.outcome = outcome;
  rec.reason = reason;
  rec.evalctx_hit = evalctx_hit;
  if (annotate_) annotate_(rec);
  access_log_->Append(rec);
}

void RequestScheduler::Complete(const TicketPtr& ticket,
                                Result<CondenseReply> result) {
  {
    std::lock_guard<std::mutex> lock(ticket->mu_);
    if (ticket->result_.has_value()) return;  // already terminal
    ticket->result_.emplace(std::move(result));
  }
  ticket->cv_.notify_all();
}

void RequestScheduler::UpdateGauges() {
  m_.queue_depth.Set(static_cast<int64_t>(queue_.size()));
  m_.inflight.Set(inflight_);
}

}  // namespace freehgc::serve
