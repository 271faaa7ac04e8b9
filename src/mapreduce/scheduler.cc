#include "mapreduce/scheduler.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "adaptive/adaptive_manager.h"
#include "adaptive/reorg.h"
#include "hail/re_replication.h"
#include "mapreduce/input_format.h"
#include "mapreduce/pending_index.h"
#include "mapreduce/record_reader.h"
#include "obs/metrics.h"
#include "planner/plan_cache.h"
#include "util/thread_pool.h"

namespace hail {
namespace mapreduce {

// ---------------------------------------------------------------------------
// SlotScheduler
// ---------------------------------------------------------------------------

SlotScheduler::SlotScheduler(SchedulerPolicy policy,
                             const std::map<std::string, double>& weights)
    : policy_(policy), weights_(weights) {}

int SlotScheduler::QueueIndex(const std::string& name) {
  for (size_t i = 0; i < queues_.size(); ++i) {
    if (queues_[i].name == name) return static_cast<int>(i);
  }
  QueueState q;
  q.name = name;
  auto it = weights_.find(name);
  q.weight = it != weights_.end() && it->second > 0.0 ? it->second : 1.0;
  weight_sum_ += q.weight;
  queues_.push_back(std::move(q));
  pending_jobs_.emplace_back();
  return static_cast<int>(queues_.size()) - 1;
}

int SlotScheduler::RegisterJob(const std::string& queue) {
  JobEntry entry;
  entry.queue = QueueIndex(queue);
  jobs_.push_back(entry);
  return static_cast<int>(jobs_.size()) - 1;
}

void SlotScheduler::IndexPending(int job, bool pending) {
  const JobEntry& entry = jobs_[static_cast<size_t>(job)];
  std::set<int>& queue = pending_jobs_[static_cast<size_t>(entry.queue)];
  if (pending) {
    if (queue.empty()) ++queues_with_work_;
    queue.insert(job);
    if (entry.has_deadline) pending_deadlines_.emplace(entry.deadline, job);
  } else {
    queue.erase(job);
    if (queue.empty()) --queues_with_work_;
    if (entry.has_deadline) pending_deadlines_.erase({entry.deadline, job});
  }
}

void SlotScheduler::SetPending(int job, size_t pending) {
  JobEntry& entry = jobs_[static_cast<size_t>(job)];
  if ((entry.pending > 0) != (pending > 0)) IndexPending(job, pending > 0);
  entry.pending = pending;
}

void SlotScheduler::OnTaskStarted(int job) {
  queues_[static_cast<size_t>(jobs_[static_cast<size_t>(job)].queue)]
      .running += 1;
}

void SlotScheduler::OnTaskFinished(int job) {
  uint32_t& running =
      queues_[static_cast<size_t>(jobs_[static_cast<size_t>(job)].queue)]
          .running;
  if (running > 0) running -= 1;
}

double SlotScheduler::Share(int queue) const {
  const QueueState& q = queues_[static_cast<size_t>(queue)];
  return static_cast<double>(q.running) / q.weight;
}

double SlotScheduler::EntitledSlots(int queue, int total_slots) const {
  return static_cast<double>(total_slots) *
         queues_[static_cast<size_t>(queue)].weight / weight_sum_;
}

int SlotScheduler::queue_of(int job) const {
  return jobs_[static_cast<size_t>(job)].queue;
}

void SlotScheduler::SetJobDeadline(int job, sim::SimTime deadline) {
  JobEntry& entry = jobs_[static_cast<size_t>(job)];
  const bool indexed = entry.pending > 0;
  if (indexed) IndexPending(job, false);
  entry.deadline = deadline;
  entry.has_deadline = true;
  if (indexed) IndexPending(job, true);
}

int SlotScheduler::PickNextJob(sim::SimTime now) const {
  if (policy_ == SchedulerPolicy::kFifo) {
    // The lowest job id with pending work: the smallest queue head.
    int first = -1;
    for (const std::set<int>& queue : pending_jobs_) {
      if (!queue.empty() && (first < 0 || *queue.begin() < first)) {
        first = *queue.begin();
      }
    }
    return first;
  }
  // EDF above fair share: a job already past its declared SLO deadline
  // outranks every fair-share deficit — earliest deadline first, ties to
  // the lowest job id. Queues still inside their SLO keep weighted-fair
  // shares below.
  if (!pending_deadlines_.empty() &&
      pending_deadlines_.begin()->first <= now) {
    return pending_deadlines_.begin()->second;
  }
  // Fair: the queue with pending work whose running/weight deficit is
  // smallest wins (work-conserving — queues without pending work never
  // block others). Ties break on first-registration order, then the
  // earliest submitted job inside the winning queue.
  int best_queue = -1;
  double best_deficit = 0.0;
  for (size_t q = 0; q < queues_.size(); ++q) {
    if (pending_jobs_[q].empty()) continue;
    const double deficit = Share(static_cast<int>(q));
    if (best_queue < 0 || deficit < best_deficit) {
      best_queue = static_cast<int>(q);
      best_deficit = deficit;
    }
  }
  if (best_queue < 0) return -1;
  return *pending_jobs_[static_cast<size_t>(best_queue)].begin();
}

bool SlotScheduler::Contended() const { return queues_with_work_ >= 2; }

// ---------------------------------------------------------------------------
// Session engine
// ---------------------------------------------------------------------------

namespace {

enum class TaskStatus { kPending, kRunning, kDone };

/// One running copy of a task: it holds a map slot on `node` from `start`
/// until its completion event, or until the failure detector ends it.
struct Attempt {
  /// From TaskState::attempt_serial, so a duplicate never aliases a retry.
  int id = 0;
  int node = -1;
  sim::SimTime start = 0.0;
  /// Another copy of the task already won; this one only returns its slot.
  bool lost = false;
};

struct TaskState {
  const InputSplit* split = nullptr;            // query tasks
  const UploadJobSpec::File* file = nullptr;    // upload tasks
  TaskStatus status = TaskStatus::kPending;
  int attempt_serial = 0;
  /// Running copies, in start order. The first one not lost is the task's
  /// own attempt; a second one is its speculative duplicate (the first
  /// completion wins).
  std::vector<Attempt> attempts;
  /// The node whose map output a kDone task kept.
  int output_node = -1;
  /// Instant the task last became pending (activation, requeue, backoff
  /// release, preemption); the preemption trigger measures catch-up wait
  /// against it.
  sim::SimTime pending_since = 0.0;
  double rr_seconds = 0.0;
  /// True while a retryable failure waits out its backoff (the task is
  /// in neither the pending index nor any slot).
  bool awaiting_backoff = false;
  bool speculated = false;  // a task is speculated at most once
  // Statistics and output of the last *successful* attempt.
  std::unique_ptr<MapOutput> output;
  ReadStats stats;
  /// Cost attribution of the winning attempt (obs/cost_attribution.h): the
  /// reader's per-bucket integer-nanosecond ledger plus the matching double
  /// total that drove the simulated clock.
  obs::CostLedger ledger;
  double billed_seconds = 0.0;
  int reschedules = 0;
  // Fair-share accounting: whether the latest assignment happened under
  // cross-queue contention, accumulated slot occupancy.
  bool contended = false;
  /// Index in `attempts` of the first attempt not lost; attempts.size()
  /// when none is live.
  size_t own() const {
    size_t i = 0;
    while (i < attempts.size() && attempts[i].lost) ++i;
    return i;
  }
  size_t live_attempts() const {
    return static_cast<size_t>(
        std::count_if(attempts.begin(), attempts.end(),
                      [](const Attempt& a) { return !a.lost; }));
  }
  const std::vector<int>& preferred_nodes() const {
    static const std::vector<int> kNone;
    if (split != nullptr) return split->preferred_nodes;
    return file != nullptr ? upload_pref : kNone;
  }
  std::vector<int> upload_pref;
};

/// One background replica rewrite on the session's idle slots: an adaptive
/// rewrite (adaptive/adaptive_manager.h) or a self-healing repair that
/// re-creates a lost or corrupt replica (hail/re_replication.h). Either
/// runs only while no foreground task is pending anywhere, is decided at
/// assignment (pre-mutation state), built on the pool (parallel) or at
/// commit (serial), and committed in the commit window after its
/// completion event.
struct BackgroundTask {
  adaptive::MaintenanceTask rewrite;  // unused by a repair
  /// A repair's loss record; null for a rewrite. Out of line, because most
  /// records are rewrites.
  std::unique_ptr<hdfs::UnderReplicatedEntry> repair;
  /// The datanode it runs on: the rewrite's replica holder, or the repair's
  /// target (-1 while no node can take it; a revive places it again).
  int node = -1;
  /// kDone covers committed, failed, converged and abandoned work.
  enum class Status { kQueued, kRunning, kDone } status = Status::kQueued;
  std::optional<adaptive::PreparedReorg> prepared;

  /// Seconds the prepared work holds its slot on a node slowed by `slow`:
  /// a repair is stretched by it, a rewrite is not.
  double SlotSeconds(double slow) const {
    return repair != nullptr ? prepared->seconds * slow : prepared->seconds;
  }
};

/// A node's two background FIFOs: repairs drain before rewrites
/// (durability beats index freshness).
constexpr size_t kRepairFifo = 0;
constexpr size_t kRewriteFifo = 1;

/// Everything a functional read produces; computed inline (serial) or on a
/// pool thread (parallel), consumed on the event thread either way.
struct ReadOutcome {
  Result<TaskCost> cost = Status::Unknown("read not executed");
  std::unique_ptr<MapOutput> output;
  ReadStats stats;
  /// Reader-level spans recorded at billed-cost offsets (block reads,
  /// index probes, failover rereads); the engine splices them onto the
  /// task span at the completion event. Empty when tracing is off.
  obs::TraceBuffer trace;
  /// Corrupt replicas the read failed over past; the completion event asks
  /// the commit window to report them (readers are const over DFS).
  std::vector<BadReplicaReport> bad_replicas;
};

/// A running task becomes a speculation candidate once it has run this
/// factor times its job's average completed-task duration.
constexpr double kSpeculativeLagFactor = 1.5;
/// Read attempts failing with a retryable error (Unavailable dead node,
/// Corruption) requeue after a backoff that starts at kRetryBackoffS and
/// doubles up to kRetryBackoffMaxS; when the failed attempt was the task's
/// kMaxTaskAttempts-th, the job fails cleanly instead of requeueing
/// forever.
constexpr int kMaxTaskAttempts = 4;
constexpr double kRetryBackoffS = 10.0;
constexpr double kRetryBackoffMaxS = 60.0;

ExecutionMode ResolveMode(ExecutionMode requested) {
  if (requested != ExecutionMode::kDefault) return requested;
  // With a single worker there is nothing to overlap — the ~µs/task
  // dispatch overhead would be pure loss, so default to the inline path.
  return ThreadPool::DefaultThreads() > 1 ? ExecutionMode::kParallel
                                          : ExecutionMode::kSerial;
}

/// One admitted job's mutable execution state. Move-only: its tasks own
/// their map outputs.
struct JobExec {
  JobExec() = default;
  JobExec(JobExec&&) = default;

  const ClusterSession::Submitted* submitted = nullptr;
  int id = -1;
  /// kWaiting: not yet admitted (deferred submit / dependency).
  /// kStarting: plan computed, paying job startup + split phase.
  /// kActive: tasks visible to the scheduler.
  enum class Phase { kWaiting, kStarting, kActive, kDone, kFailed };
  Phase phase = Phase::kWaiting;
  JobPlan plan;  // query jobs
  std::vector<TaskState> tasks;
  PendingTaskIndex pending{0};
  uint32_t completed = 0;
  sim::SimTime eligible_at = 0.0;
  sim::SimTime finish_time = 0.0;
  /// Online adaptation already observed this job (skip it in the epilogue).
  bool observed = false;
  Status error;  // valid when kFailed
  /// Tracing/cost-attribution state: the job's span id (0 = none) and the
  /// engine-level waste billed to this tenant (preempted slot time,
  /// speculative losers) on top of the winning attempts' reader costs.
  uint64_t span = 0;
  obs::CostLedger waste_ledger;
  double waste_seconds = 0.0;
};

}  // namespace

/// The whole mutable state of one session execution (shared by the event
/// closures). Generalizes the former single-job Engine: per-job state
/// lives in JobExec, slots/heartbeats/maintenance/failure state are
/// session-wide, and a SlotScheduler decides which job a free slot serves.
struct SessionEngine {
  hdfs::MiniDfs* dfs = nullptr;
  const SessionOptions* options = nullptr;
  std::vector<JobExec> jobs;
  SlotScheduler scheduler;

  sim::EventQueue events;
  std::vector<int> free_slots;  // per node
  int total_slots = 0;
  /// Unassigned foreground tasks across all active jobs (the maintenance
  /// gate: background work runs only while this is 0).
  size_t foreground_pending = 0;
  size_t jobs_finished = 0;  // done or failed
  std::vector<int> completion_order;
  bool session_done = false;
  Status first_error;  // session-fatal (scheduler desync, starvation)

  /// Span tracing (obs/trace.h). All tracer mutation happens on the event
  /// thread inside event callbacks, and only while the session is healthy:
  /// after a fatal error the loop discards unjoined reads and unapplied
  /// commits and drains the remaining events, a tail that is not part of
  /// the session's schedule and stays out of its trace.
  obs::Tracer* tracer = nullptr;
  uint64_t session_span = 0;
  bool tracing() const { return tracer != nullptr && first_error.ok(); }

  std::vector<char> kill_fired;  // one flag per fault_plan.kills entry

  /// What Run returns, accumulated in place: the session counters and
  /// the per-queue usage (indexed like scheduler.queues()); Run adds the
  /// per-job results and the derived totals at the end.
  SessionResult result;

  // ---- background work: adaptive rewrites and self-healing repairs ----
  std::vector<BackgroundTask> background;
  /// Per node, the FIFOs of queued `background` indexes: kRepairFifo, then
  /// kRewriteFifo.
  std::vector<std::array<std::deque<size_t>, 2>> background_by_node;

  // ---- the event loop's read barrier and commit list ----
  /// Where map-task reads and background builds run: on `pool` (parallel)
  /// or inline on the event thread (serial). Nothing else reads it.
  bool parallel = false;
  ThreadPool* pool = nullptr;
  /// One dispatched-but-not-joined functional read (an inline read's
  /// future is already satisfied). `seq` is the completion event's reserved
  /// FIFO slot; `earliest_completion` the soonest simulated instant the
  /// task can complete (cost >= 0), which bounds how far the event loop
  /// may run before joining.
  struct InFlight {
    int job = -1;
    size_t task_id = 0;
    int attempt = 0;
    int node = -1;
    sim::SimTime assign_time = 0.0;
    sim::SimTime earliest_completion = 0.0;
    uint64_t seq = 0;
    std::future<ReadOutcome> future;
  };
  std::deque<InFlight> inflight;  // assignment (= reserved seq) order
  /// Shared-DFS mutations the current event requested — upload execution,
  /// reorg and repair commits, bad-replica reports, kills, revives and
  /// corruptions — in request order. The loop applies them after the event
  /// returns and every in-flight read has joined: reads assigned before a
  /// mutation observe (and may be concurrently reading) the pre-mutation
  /// state.
  std::vector<std::function<void()>> commits;

  const sim::CostConstants& constants() const {
    return dfs->cluster().constants();
  }

  void AdmitJob(int j);
  /// Admits job j and, when it starts, schedules ActivateJob at its
  /// eligible_at (a deferred submission or a released dependent).
  void AdmitAndActivate(int j);
  /// Admission control: true when the job was shed (already failed).
  bool ShedIfOverloaded(int j);
  void ActivateJob(int j);
  void FailJob(int j, Status st);
  void JobDone(int j);
  void AdmitDependents(int j);
  void CheckSessionDone();
  void Heartbeat(int node);
  /// Fair-scheduler preemption: when the cluster is fully occupied and a
  /// queue's pending task has waited past the catch-up deadline while the
  /// queue is under its fair share, cancel the most recently assigned
  /// task of the most over-share queue (the attempt requeues; its wasted
  /// slot-seconds are billed to the preempted queue).
  void MaybePreempt();
  /// Online adaptation (options->online_adaptation): observe one finished
  /// query and enqueue whatever the planner decided, mid-session.
  void ObserveOnline(int j);
  /// Files planner output into the per-node rewrite FIFOs.
  void EnqueueMaintTasks(std::vector<adaptive::MaintenanceTask> tasks);
  /// Offers the node's free slots to its background FIFOs, repairs first,
  /// within the heartbeat's remaining quota (none once the session is done).
  void MaintenanceBeat(int node, int assigned);
  /// Schedules an out-of-band heartbeat of `node`: a freed slot asks for
  /// work shortly instead of waiting for the periodic beat.
  void Kick(int node);
  /// Every attempt starts here (taking a slot and the queue's running
  /// count) and ends in EndAttempt, which gives both back; the slot only
  /// while the node is alive. Returns the new attempt's id.
  int StartAttempt(int j, size_t task_id, int node);
  void EndAttempt(int j, size_t task_id, size_t index);
  /// Makes the task pending again and visible to the scheduler.
  void Requeue(int j, size_t task_id);
  void OnTaskComplete(int j, size_t task_id, int attempt, double rr_seconds,
                      const std::shared_ptr<ReadOutcome>& outcome);
  void HandleFailedAttempt(int j, size_t task_id, size_t index,
                           const Status& st);
  void OnFailureDetected(int node);
  void AssignTask(int j, size_t task_id, int node);
  void TrySpeculate(int node, int* assigned);
  void DispatchRead(int j, size_t task_id, int attempt, int node);
  void AssignUpload(int j, size_t task_id, int node);
  void ExecuteUpload(int j, size_t task_id, int node, uint64_t seq);
  /// What offering a queued background task a slot did: it took a quota
  /// unit (assigned, or a rewrite that failed to prepare), was dropped
  /// without one, or stalled its FIFO for the rest of the beat.
  enum class Offer { kTook, kSkipped, kStalled };
  Offer AssignBackground(size_t id, int node);
  void OnBackgroundComplete(size_t id, int node);
  void CommitBackground(size_t id);
  // Fault plan execution: requests go on the commit list, Apply* runs in
  // the commit window.
  void RequestKill(int victim, double revive_after);
  void ApplyKill(int victim, double revive_after, uint64_t detect_seq);
  void ApplyRevive(int node);
  void ApplyCorrupt(int node, int nth_block);
  // Self-healing re-replication (options->self_heal).
  void IngestRepairs();
  /// Files a queued repair on the FIFO of the node PickRepairTarget
  /// chooses; leaves it unplaced when no node is eligible.
  void PlaceRepair(size_t id);
  ReadOutcome ExecuteRead(int j, const InputSplit& split, int node) const;
  void JoinOldest();
  void RunLoop();
  void AccountUsage(int j, const TaskState& task, double slot_seconds);
  JobResult AssembleResult(const JobExec& job) const;
};

void SessionEngine::AdmitJob(int j) {
  JobExec& job = jobs[static_cast<size_t>(j)];
  if (job.phase != JobExec::Phase::kWaiting) return;
  if (tracing()) {
    const ClusterSession::Submitted& s = *job.submitted;
    job.span = tracer->AddSpan(
        "job", s.kind == ClusterSession::Submitted::Kind::kQuery ? "query"
                                                                 : "upload",
        events.Now(), 0.0, session_span, /*lane=*/-1);
    tracer->Attr(job.span, "name",
                 s.kind == ClusterSession::Submitted::Kind::kQuery
                     ? s.spec.name
                     : s.upload.name);
    tracer->Attr(job.span, "job", static_cast<int64_t>(j));
    tracer->Attr(job.span, "queue", s.queue);
  }
  if (ShedIfOverloaded(j)) return;
  const ClusterSession::Submitted& sub = *job.submitted;
  const sim::SimTime now = events.Now();
  if (sub.kind == ClusterSession::Submitted::Kind::kQuery) {
    // Plan cache: a repeat submission of the same query at an unchanged
    // directory generation re-uses the cached plan and skips both the
    // computation and its billed planning CPU.
    planner::PlanCache* cache = options->plan_cache;
    bool cache_hit = false;
    std::string key;
    uint64_t generation = 0;
    if (cache != nullptr) {
      key = planner::PlanCache::KeyFor(sub.spec);
      generation = dfs->namenode().directory_generation();
      const uint64_t inval_before = cache->stats().invalidations;
      const JobPlan* cached = cache->Lookup(key, generation);
      result.plan_cache_invalidations +=
          cache->stats().invalidations - inval_before;
      if (cached != nullptr) {
        job.plan = *cached;
        cache_hit = true;
        ++result.plan_cache_hits;
      }
    }
    if (!cache_hit) {
      Result<JobPlan> plan = ComputeJobPlan(dfs, sub.spec);
      if (!plan.ok()) {
        FailJob(j, plan.status());
        return;
      }
      job.plan = std::move(*plan);
      if (cache != nullptr) {
        cache->Insert(key, generation, job.plan);
        ++result.plan_cache_misses;
      }
    }
    if (job.plan.planned) ++result.jobs_planned;
    if (job.plan.splits.empty()) {
      FailJob(j, Status::InvalidArgument("job '" + sub.spec.name +
                                         "' has no input"));
      return;
    }
    job.tasks.resize(job.plan.splits.size());
    for (size_t i = 0; i < job.plan.splits.size(); ++i) {
      job.tasks[i].split = &job.plan.splits[i];
    }
    // Job submission pays startup + the split phase before tasks appear;
    // the per-block planning CPU is paid only when the plan was actually
    // computed (a cache hit re-uses the already-paid work).
    job.eligible_at = now + constants().job_startup_s +
                      job.plan.split_phase_seconds +
                      (cache_hit ? 0.0 : job.plan.planner_seconds);
  } else {
    if (sub.upload.files.empty()) {
      FailJob(j, Status::InvalidArgument("upload job '" + sub.upload.name +
                                         "' has no files"));
      return;
    }
    if (sub.upload.system != System::kHadoop &&
        sub.upload.system != System::kHail) {
      // Hadoop++ ingestion is itself a MapReduce job chain, not a
      // client-side pipeline; silently falling back to the text path
      // would store a layout its queries cannot read.
      FailJob(j, Status::InvalidArgument(
                     "upload job '" + sub.upload.name + "': system '" +
                     std::string(SystemName(sub.upload.system)) +
                     "' is not modelled as slot tasks"));
      return;
    }
    job.tasks.resize(sub.upload.files.size());
    for (size_t i = 0; i < sub.upload.files.size(); ++i) {
      job.tasks[i].file = &sub.upload.files[i];
      job.tasks[i].upload_pref = {sub.upload.files[i].client_node};
    }
    job.eligible_at = now + constants().job_startup_s;
  }
  job.phase = JobExec::Phase::kStarting;
}

bool SessionEngine::ShedIfOverloaded(int j) {
  JobExec& job = jobs[static_cast<size_t>(j)];
  const std::string& queue = job.submitted->queue;
  const auto it = options->queue_admission.find(queue);
  if (it == options->queue_admission.end()) return false;
  const AdmissionControl& ac = it->second;
  // Backlog bound: unfinished jobs already admitted to this queue.
  if (ac.max_backlog_jobs > 0) {
    size_t backlog = 0;
    for (const JobExec& other : jobs) {
      if (other.id == j || other.submitted->queue != queue) continue;
      if (other.phase == JobExec::Phase::kStarting ||
          other.phase == JobExec::Phase::kActive) {
        ++backlog;
      }
    }
    if (backlog >= ac.max_backlog_jobs) {
      FailJob(j, Status::Overloaded(
                     "queue '" + queue + "' backlog at its admission bound (" +
                     std::to_string(backlog) + " jobs)"));
      return true;
    }
  }
  // Projected-wait bound: pending foreground tasks of the queue's active
  // jobs x the queue's observed mean task slot-seconds, divided by the
  // slots its fair-share weight entitles it to. Needs one completed task.
  if (ac.shed_wait_s > 0.0) {
    const int q = scheduler.queue_of(j);
    const QueueUsage& u = result.queues[static_cast<size_t>(q)];
    if (u.tasks > 0 && total_slots > 0) {
      const double mean_ss = u.slot_seconds / static_cast<double>(u.tasks);
      size_t backlog_tasks = 0;
      for (const JobExec& other : jobs) {
        if (other.submitted->queue != queue) continue;
        if (other.phase == JobExec::Phase::kActive) {
          backlog_tasks += other.pending.size();
        } else if (other.phase == JobExec::Phase::kStarting) {
          backlog_tasks += other.tasks.size();
        }
      }
      const double projected = static_cast<double>(backlog_tasks) * mean_ss /
                               scheduler.EntitledSlots(q, total_slots);
      if (projected > ac.shed_wait_s) {
        char wait[32];
        std::snprintf(wait, sizeof(wait), "%.1f", projected);
        FailJob(j, Status::Overloaded("queue '" + queue +
                                      "' projected wait " + wait +
                                      "s exceeds shed threshold"));
        return true;
      }
    }
  }
  return false;
}

void SessionEngine::ActivateJob(int j) {
  JobExec& job = jobs[static_cast<size_t>(j)];
  if (job.phase != JobExec::Phase::kStarting) return;
  job.phase = JobExec::Phase::kActive;
  job.pending = PendingTaskIndex(dfs->cluster().num_nodes());
  for (size_t i = 0; i < job.tasks.size(); ++i) Requeue(j, i);
  // No immediate poke: the next TaskTracker heartbeat (periodic or
  // out-of-band) picks the work up, like a real JobTracker.
}

void SessionEngine::Requeue(int j, size_t task_id) {
  JobExec& job = jobs[static_cast<size_t>(j)];
  TaskState& task = job.tasks[task_id];
  task.status = TaskStatus::kPending;
  task.pending_since = events.Now();
  job.pending.Push(task_id, task.preferred_nodes());
  ++foreground_pending;
  scheduler.SetPending(j, job.pending.size());
}

void SessionEngine::Kick(int node) {
  events.ScheduleAfter(constants().oob_heartbeat_latency_s,
                       [this, node] { Heartbeat(node); });
}

void SessionEngine::FailJob(int j, Status st) {
  JobExec& job = jobs[static_cast<size_t>(j)];
  if (job.phase == JobExec::Phase::kDone ||
      job.phase == JobExec::Phase::kFailed) {
    return;
  }
  foreground_pending -= job.pending.size();
  job.pending = PendingTaskIndex(0);
  scheduler.SetPending(j, 0);
  job.phase = JobExec::Phase::kFailed;
  job.finish_time = events.Now();  // failed tenants still count for makespan
  if (st.IsOverloaded()) {
    ++result.jobs_shed;
    ++result.queues[static_cast<size_t>(scheduler.queue_of(j))].jobs_shed;
  }
  if (tracing() && job.span != 0) {
    tracer->Attr(job.span, "error", st.message());
    tracer->SetEnd(job.span, job.finish_time);
  }
  job.error = std::move(st);
  ++jobs_finished;
  AdmitDependents(j);
  CheckSessionDone();
}

void SessionEngine::JobDone(int j) {
  JobExec& job = jobs[static_cast<size_t>(j)];
  job.phase = JobExec::Phase::kDone;
  // The job's reported numbers are fixed at this instant (remaining
  // heartbeats only ever serve other jobs or background rewrites).
  job.finish_time = events.Now() + constants().job_cleanup_s;
  completion_order.push_back(j);
  ++jobs_finished;
  if (tracing() && job.span != 0) tracer->SetEnd(job.span, job.finish_time);
  if (options->online_adaptation && options->adaptive != nullptr &&
      job.submitted->kind == ClusterSession::Submitted::Kind::kQuery) {
    // Deferred to its own event: at an event boundary the loop has applied
    // every commit requested so far, so the observe/plan round reads the
    // committed state.
    events.ScheduleAfter(constants().oob_heartbeat_latency_s,
                         [this, j] { ObserveOnline(j); });
  }
  AdmitDependents(j);
  CheckSessionDone();
}

void SessionEngine::ObserveOnline(int j) {
  if (!first_error.ok() || options->adaptive == nullptr) return;
  JobExec& job = jobs[static_cast<size_t>(j)];
  if (job.phase != JobExec::Phase::kDone || job.observed) return;
  job.observed = true;
  const size_t before = background.size();
  options->adaptive->ObserveJob(job.submitted->spec, AssembleResult(job));
  EnqueueMaintTasks(options->adaptive->TakeTasks());
  if (session_done && first_error.ok()) {
    // The cluster may already be idle: kick the nodes that just got work
    // (mid-session the periodic beats pick it up).
    std::vector<int> nodes;
    for (size_t id = before; id < background.size(); ++id) {
      nodes.push_back(background[id].node);
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    for (int node : nodes) Kick(node);
  }
}

void SessionEngine::EnqueueMaintTasks(
    std::vector<adaptive::MaintenanceTask> tasks) {
  const int n = dfs->cluster().num_nodes();
  for (const adaptive::MaintenanceTask& task : tasks) {
    if (task.datanode < 0 || task.datanode >= n) continue;
    background_by_node[static_cast<size_t>(task.datanode)][kRewriteFifo]
        .push_back(background.size());
    BackgroundTask& t = background.emplace_back();
    t.rewrite = task;
    t.node = task.datanode;
    ++result.maintenance_scheduled;
  }
}

void SessionEngine::AdmitDependents(int j) {
  const JobExec& done = jobs[static_cast<size_t>(j)];
  for (JobExec& job : jobs) {
    if (job.phase != JobExec::Phase::kWaiting ||
        job.submitted->depends_on != j) {
      continue;
    }
    if (done.phase != JobExec::Phase::kDone) {
      // Fail fast, and keep the overload signal distinct: a dependent of a
      // shed job is itself "shed by cascade", not a generic precondition
      // failure (clients retry the two cases differently).
      FailJob(job.id,
              done.error.IsOverloaded()
                  ? Status::Overloaded("dependency job " + std::to_string(j) +
                                       " was shed")
                  : Status::FailedPrecondition(
                        "dependency job " + std::to_string(j) + " failed"));
      continue;
    }
    const int id = job.id;
    const sim::SimTime when =
        std::max(events.Now(), job.submitted->submit_time);
    events.ScheduleAt(when, [this, id] { AdmitAndActivate(id); });
  }
}

void SessionEngine::AdmitAndActivate(int j) {
  AdmitJob(j);
  const JobExec& job = jobs[static_cast<size_t>(j)];
  if (job.phase == JobExec::Phase::kStarting) {
    events.ScheduleAt(job.eligible_at, [this, j] { ActivateJob(j); });
  }
}

void SessionEngine::CheckSessionDone() {
  if (session_done || jobs_finished != jobs.size()) return;
  session_done = true;
  // The cluster just went idle; remaining repairs and rewrites drain on
  // the freed slots (every job's reported numbers are already fixed —
  // heartbeats below only ever assign background work).
  for (size_t n = 0; n < background_by_node.size(); ++n) {
    const auto& fifos = background_by_node[n];
    if (!fifos[kRepairFifo].empty() || !fifos[kRewriteFifo].empty()) {
      Kick(static_cast<int>(n));
    }
  }
}

void SessionEngine::Heartbeat(int node) {
  if (!dfs->cluster().node(node).alive()) return;
  if (session_done) {
    // Foreground is finished (or aborted). Maintenance may still drain on
    // the idle cluster below — but never after an error.
    if (!first_error.ok()) return;
    MaintenanceBeat(node, /*assigned=*/0);
    return;
  }
  int assigned = 0;
  bool upload_assigned = false;
  while (free_slots[static_cast<size_t>(node)] > 0 &&
         assigned < constants().tasks_per_heartbeat) {
    // Policy first (which job deserves the slot), locality second (the
    // earliest pending task of that job preferring this node, else its
    // earliest pending task overall).
    const int j = scheduler.PickNextJob(events.Now());
    if (j < 0) break;
    JobExec& job = jobs[static_cast<size_t>(j)];
    const bool contended = scheduler.Contended();
    const std::optional<size_t> pick = job.pending.PopFor(node);
    if (!pick.has_value()) {
      // Scheduler and job pending counts are updated in lockstep; a
      // mismatch is a logic error — fail loudly instead of silently
      // absorbing the corruption (foreground_pending would stay inflated
      // and block maintenance for the rest of the session).
      if (first_error.ok()) {
        first_error = Status::Unknown("scheduler/job pending-count desync");
      }
      session_done = true;
      return;
    }
    --foreground_pending;
    scheduler.SetPending(j, job.pending.size());
    job.tasks[*pick].contended = contended;
    if (job.submitted->kind == ClusterSession::Submitted::Kind::kUpload) {
      AssignUpload(j, *pick, node);
      ++assigned;
      // An ingest launch consumes the rest of this beat: its writes land
      // in the commit window after this event, so nothing else is
      // assigned against the pre-upload state.
      upload_assigned = true;
      break;
    }
    AssignTask(j, *pick, node);
    ++assigned;
  }
  if (!upload_assigned && options->speculative_execution &&
      foreground_pending == 0 &&
      free_slots[static_cast<size_t>(node)] > 0 &&
      assigned < constants().tasks_per_heartbeat) {
    // The slot would idle: offer it to a straggling task as a duplicate
    // attempt (first completion wins).
    TrySpeculate(node, &assigned);
  }
  if (!upload_assigned) {
    // Background maintenance rides strictly behind foreground work: a
    // reorg task is assigned only while *no* foreground task of any
    // active job is pending anywhere, within the same per-heartbeat
    // assignment quota, and only on the node holding the replica.
    // Foreground tenants are never starved.
    MaintenanceBeat(node, assigned);
  }
  if (options->preemption &&
      options->policy == SchedulerPolicy::kFair) {
    MaybePreempt();
  }
}

void SessionEngine::MaybePreempt() {
  // Only meaningful when the cluster is fully occupied: a free slot
  // anywhere can serve any pending task (PopFor falls back to the
  // earliest pending task overall), so starvation self-clears otherwise.
  for (size_t n = 0; n < free_slots.size(); ++n) {
    if (free_slots[n] > 0 && dfs->cluster().node(static_cast<int>(n)).alive())
      return;
  }
  const sim::SimTime now = events.Now();
  const std::vector<SlotScheduler::QueueState>& queues = scheduler.queues();
  // Starved queue: running strictly below its fair-share entitlement,
  // with a runnable pending task older than the catch-up deadline. The
  // entitlement gate matters: an over-share queue whose *excess* tasks
  // queue up behind its own running ones is backlogged, not starved.
  // Lowest queue index wins ties (registration order).
  int starved = -1;
  for (const JobExec& job : jobs) {
    if (job.phase != JobExec::Phase::kActive || job.pending.size() == 0)
      continue;
    const int q = scheduler.queue_of(job.id);
    if (starved >= 0 && q >= starved) continue;
    if (static_cast<double>(queues[static_cast<size_t>(q)].running) >=
        scheduler.EntitledSlots(q, total_slots)) {
      continue;
    }
    for (const TaskState& t : job.tasks) {
      if (t.status != TaskStatus::kPending || t.awaiting_backoff) continue;
      if (now - t.pending_since <= options->preemption_catchup_s) continue;
      starved = q;
      break;
    }
  }
  if (starved < 0) return;
  // Victim queue: the most over-share queue (highest running/weight)
  // strictly above the starved queue's share. Ties: lowest queue index.
  int victim_q = -1;
  double victim_share = scheduler.Share(starved);
  for (size_t q = 0; q < queues.size(); ++q) {
    if (static_cast<int>(q) == starved || queues[q].running == 0) continue;
    if (scheduler.Share(static_cast<int>(q)) > victim_share) {
      victim_q = static_cast<int>(q);
      victim_share = scheduler.Share(static_cast<int>(q));
    }
  }
  if (victim_q < 0) return;
  // Victim task: the most recently assigned running query task of that
  // queue (least sunk work wasted); ties break on lowest (job, task). A
  // task with a duplicate is left to its own race.
  int vj = -1;
  size_t vt = 0;
  sim::SimTime latest = 0.0;
  for (const JobExec& job : jobs) {
    if (job.phase != JobExec::Phase::kActive ||
        scheduler.queue_of(job.id) != victim_q ||
        job.submitted->kind != ClusterSession::Submitted::Kind::kQuery) {
      continue;
    }
    for (size_t t = 0; t < job.tasks.size(); ++t) {
      const TaskState& task = job.tasks[t];
      if (task.status != TaskStatus::kRunning || task.live_attempts() != 1)
        continue;
      const Attempt& own = task.attempts[task.own()];
      if (!dfs->cluster().node(own.node).alive()) continue;
      if (vj < 0 || own.start > latest) {
        vj = job.id;
        vt = t;
        latest = own.start;
      }
    }
  }
  if (vj < 0) return;
  JobExec& job = jobs[static_cast<size_t>(vj)];
  const size_t index = job.tasks[vt].own();
  const Attempt own = job.tasks[vt].attempts[index];
  // End the attempt and requeue the task; the attempt's completion event
  // finds no record and does nothing. Deliberately NOT counted as a
  // reschedule: preemption is the scheduler's choice, not a task failure,
  // so it neither consumes retry attempts nor inflates a later failure's
  // backoff.
  EndAttempt(vj, vt, index);
  Requeue(vj, vt);
  const double wasted = now - own.start;
  // The preempted slot time is billed to the victim tenant's cost ledger:
  // the cluster did the work, the queue's own overdraft caused its loss.
  job.waste_ledger.Bill(obs::CostBucket::kWastedPreemption, wasted);
  job.waste_seconds += wasted;
  if (tracing()) {
    const uint64_t sp = tracer->AddSpan("preemption", "sched", own.start,
                                        wasted, job.span, /*lane=*/own.node);
    tracer->Attr(sp, "task", static_cast<uint64_t>(vt));
    tracer->Attr(sp, "node", static_cast<int64_t>(own.node));
    tracer->Attr(sp, "wasted_slot_seconds", wasted);
  }
  QueueUsage& u = result.queues[static_cast<size_t>(victim_q)];
  ++u.preemptions;
  u.preempted_slot_seconds += wasted;
  ++result.preemptions;
  result.preempted_slot_seconds += wasted;
  // The freed slot goes to whoever the policy now favors (the starved
  // queue, by construction) on the next beat.
  Kick(own.node);
}

void SessionEngine::MaintenanceBeat(int node, int assigned) {
  if (foreground_pending > 0) return;
  // Mid-session the TaskTracker's per-heartbeat quota applies; once every
  // job is done the cluster is idle and the FIFOs drain as fast as slots
  // allow. Repairs go first under the same gate and quota.
  for (std::deque<size_t>& fifo :
       background_by_node[static_cast<size_t>(node)]) {
    while (free_slots[static_cast<size_t>(node)] > 0 && !fifo.empty() &&
           (session_done || assigned < constants().tasks_per_heartbeat)) {
      const size_t id = fifo.front();
      fifo.pop_front();
      const Offer offer = AssignBackground(id, node);
      if (offer == Offer::kStalled) break;
      if (offer == Offer::kTook) ++assigned;
    }
  }
}

SessionEngine::Offer SessionEngine::AssignBackground(size_t id, int node) {
  BackgroundTask& t = background[id];
  if (t.status != BackgroundTask::Status::kQueued) return Offer::kSkipped;
  const auto abandon = [&] {
    dfs->namenode().AbandonRepair(*t.repair);
    t.status = BackgroundTask::Status::kDone;
    ++result.repairs_abandoned;
    return Offer::kSkipped;
  };
  // Work that is no longer needed is dropped before it takes a slot or
  // quota: a rewrite whose target already has what it would build (an
  // earlier copy committed first), a repair whose lost node revived with
  // its replica intact or whose file is gone.
  if (t.repair == nullptr && adaptive::IsConverged(*dfs, t.rewrite)) {
    t.status = BackgroundTask::Status::kDone;
    ++result.maintenance_converged;
    return Offer::kSkipped;
  }
  if (t.repair != nullptr && !RepairStillNeeded(*dfs, *t.repair)) {
    return abandon();
  }
  if (foreground_pending > 0) {
    // Strict low priority is an invariant, not a hope: record violations
    // (tests pin this at zero) instead of silently absorbing them.
    ++result.maintenance_while_foreground_pending;
  }
  // The work is decided against the DFS state at assignment time; the
  // mutation waits for the commit window after the completion event.
  Result<adaptive::PreparedReorg> prep =
      t.repair == nullptr ? adaptive::PrepareReorg(*dfs, t.rewrite)
                          : PrepareRepair(*dfs, *t.repair, node);
  if (!prep.ok()) {
    if (t.repair == nullptr) {
      // A broken rewrite (replica gone, wrong layout) is dropped, not
      // retried, so it cannot wedge the queue; it used its quota unit.
      t.status = BackgroundTask::Status::kDone;
      ++result.maintenance_failed;
      return Offer::kTook;
    }
    if (!prep.status().IsUnavailable()) return abandon();
    // No live source right now (every surviving holder is dead): park the
    // repair; a later beat — after a revive — tries again.
    background_by_node[static_cast<size_t>(node)][kRepairFifo].push_back(id);
    return Offer::kStalled;
  }
  t.status = BackgroundTask::Status::kRunning;
  t.prepared.emplace(std::move(*prep));
  // The build owns its inputs, so parallel mode runs it on the pool while
  // the simulation goes on; CommitBackground joins it in the commit
  // window. Serial mode builds at commit.
  if (parallel) t.prepared->StartBuild(pool);
  free_slots[static_cast<size_t>(node)] -= 1;
  events.ScheduleAfter(t.SlotSeconds(options->fault_plan.slow_factor(node)),
                       [this, id, node] { OnBackgroundComplete(id, node); });
  return Offer::kTook;
}

void SessionEngine::OnBackgroundComplete(size_t id, int node) {
  BackgroundTask& t = background[id];
  if (t.status != BackgroundTask::Status::kRunning) return;
  if (!first_error.ok() || !dfs->cluster().node(node).alive()) {
    // The session failed (no DFS mutation while the queue drains), or the
    // node died mid-build and took the written bytes with it. A repair is
    // placed again at once, unless the session failed; a rewrite waits for
    // the session end, which hands it back to the manager (after a revive
    // its planner state still wants the block).
    t.status = BackgroundTask::Status::kQueued;
    t.prepared.reset();
    if (t.repair != nullptr) {
      t.node = -1;
      if (first_error.ok()) PlaceRepair(id);
    }
    return;
  }
  free_slots[static_cast<size_t>(node)] += 1;
  if (tracing()) {
    const double duration =
        t.SlotSeconds(options->fault_plan.slow_factor(node));
    const sim::SimTime start = events.Now() - duration;
    if (t.repair == nullptr) {
      const uint64_t sp = tracer->AddSpan("reorg", "maint", start, duration,
                                          session_span, /*lane=*/node);
      tracer->Attr(sp, "block", t.rewrite.block_id);
      tracer->Attr(sp, "column", static_cast<int64_t>(t.rewrite.column));
      tracer->Attr(sp, "node", static_cast<int64_t>(node));
    } else {
      const uint64_t sp = tracer->AddSpan("repair", "repair", start, duration,
                                          session_span, /*lane=*/node);
      tracer->Attr(sp, "block", t.repair->block_id);
      tracer->Attr(sp, "lost_datanode",
                   static_cast<int64_t>(t.repair->lost_datanode));
      tracer->Attr(sp, "target", static_cast<int64_t>(node));
    }
  }
  commits.push_back([this, id] { CommitBackground(id); });
  // The freed slot asks for more work (background or requeued foreground).
  Kick(node);
}

void SessionEngine::CommitBackground(size_t id) {
  BackgroundTask& t = background[id];
  adaptive::PreparedReorg prepared = std::move(*t.prepared);
  t.prepared.reset();
  if (t.repair != nullptr) {
    if (CommitRepair(dfs, *t.repair, t.node, std::move(prepared)).ok()) {
      t.status = BackgroundTask::Status::kDone;
      ++result.repairs_completed;
      return;
    }
    // The commit failed (the target is gone): place the replica somewhere
    // else.
    t.status = BackgroundTask::Status::kQueued;
    PlaceRepair(id);
    return;
  }
  t.status = BackgroundTask::Status::kDone;
  if (!adaptive::CommitReorg(dfs, t.rewrite, std::move(prepared)).ok()) {
    ++result.maintenance_failed;
    return;
  }
  ++result.maintenance_completed;
  using Kind = adaptive::MaintenanceTask::Kind;
  if (t.rewrite.kind == Kind::kAddReplica) {
    ++result.replicas_added;
  } else if (t.rewrite.kind == Kind::kEvictReplica) {
    ++result.replicas_evicted;
  } else if (t.rewrite.kind == Kind::kBuildStats) {
    ++result.stats_backfilled;
  }
}

void SessionEngine::IngestRepairs() {
  if (!options->self_heal) return;
  for (hdfs::UnderReplicatedEntry& e :
       dfs->namenode().TakeUnderReplicated()) {
    if (!RepairStillNeeded(*dfs, e)) {
      dfs->namenode().AbandonRepair(e);
      ++result.repairs_abandoned;
      continue;
    }
    background.emplace_back().repair =
        std::make_unique<hdfs::UnderReplicatedEntry>(std::move(e));
    ++result.repairs_scheduled;
    PlaceRepair(background.size() - 1);
  }
}

void SessionEngine::PlaceRepair(size_t id) {
  BackgroundTask& t = background[id];
  if (t.status != BackgroundTask::Status::kQueued) return;
  t.node = PickRepairTarget(*dfs, *t.repair);
  if (t.node < 0) return;  // unplaced; placed again after the next revive
  background_by_node[static_cast<size_t>(t.node)][kRepairFifo].push_back(id);
  // Mid-session the periodic beats pick the repair up; after the last job
  // only an explicit kick reaches the idle target.
  if (session_done) Kick(t.node);
}

void SessionEngine::RequestKill(int victim, double revive_after) {
  // The failure-detection event's FIFO rank is fixed at the request.
  const uint64_t detect_seq = events.ReserveSeq();
  commits.push_back([this, victim, revive_after, detect_seq] {
    ApplyKill(victim, revive_after, detect_seq);
  });
}

void SessionEngine::ApplyKill(int victim, double revive_after,
                              uint64_t detect_seq) {
  if (!dfs->cluster().node(victim).alive()) return;
  dfs->KillNode(victim, events.Now());
  events.ScheduleAtReserved(detect_seq,
                            events.Now() + constants().expiry_interval_s,
                            [this, victim] { OnFailureDetected(victim); });
  if (revive_after >= 0.0) {
    // Never revive before the failure detection fired — the detector's
    // requeue/repair bookkeeping assumes the node stayed dead until then.
    const double delay =
        std::max(revive_after, constants().expiry_interval_s + 1.0);
    events.ScheduleAfter(delay, [this, victim] {
      commits.push_back([this, victim] { ApplyRevive(victim); });
    });
  }
}

void SessionEngine::ApplyRevive(int node) {
  if (dfs->cluster().node(node).alive()) return;
  dfs->ReviveNode(node);
  free_slots[static_cast<size_t>(node)] =
      dfs->cluster().node(node).profile().map_slots;
  // The node re-joins: kick a heartbeat (its periodic chain stops once
  // the session ends) and give stalled/unplaced repairs another chance —
  // the revive may have restored their only source, or made this node an
  // eligible target.
  Kick(node);
  if (options->self_heal) {
    for (size_t id = 0; id < background.size(); ++id) {
      if (background[id].repair != nullptr && background[id].node < 0) {
        PlaceRepair(id);
      }
    }
    for (size_t n = 0; n < background_by_node.size(); ++n) {
      if (background_by_node[n][kRepairFifo].empty()) continue;
      const int rn = static_cast<int>(n);
      if (rn == node || !dfs->cluster().node(rn).alive()) continue;
      Kick(rn);
    }
  }
}

void SessionEngine::ApplyCorrupt(int node, int nth_block) {
  // "nth block of node i" resolves against the namenode's block-id-ordered
  // holdings at injection time — deterministic for a given DFS state.
  std::vector<uint64_t> blocks = dfs->namenode().BlocksOnDatanode(node);
  if (blocks.empty()) return;
  const uint64_t block = blocks[static_cast<size_t>(nth_block) % blocks.size()];
  (void)dfs->InjectCorruption(node, block);
}

ReadOutcome SessionEngine::ExecuteRead(int j, const InputSplit& split,
                                       int node) const {
  const JobExec& job = jobs[static_cast<size_t>(j)];
  // Readers are cheap to construct; a private instance per read keeps the
  // pool threads free of any shared reader state.
  const std::unique_ptr<RecordReader> rdr =
      MakeRecordReader(job.submitted->spec.system);
  ReadOutcome out;
  out.output = std::make_unique<MapOutput>(job.submitted->spec.collect_output);
  ReadContext ctx;
  ctx.dfs = dfs;
  ctx.spec = &job.submitted->spec;
  ctx.plan = &job.plan;
  ctx.task_node = node;
  ctx.out = out.output.get();
  // Reader spans land in the outcome's buffer (at billed-cost offsets);
  // the completion event splices them, so pool threads never touch the
  // session tracer.
  if (tracer != nullptr) ctx.trace = &out.trace;
  out.cost = rdr->ReadSplit(split, &ctx);
  out.stats = ctx.stats;
  out.bad_replicas = std::move(ctx.bad_replicas);
  return out;
}

int SessionEngine::StartAttempt(int j, size_t task_id, int node) {
  TaskState& task = jobs[static_cast<size_t>(j)].tasks[task_id];
  const int id = ++task.attempt_serial;
  task.attempts.push_back(Attempt{id, node, events.Now(), /*lost=*/false});
  free_slots[static_cast<size_t>(node)] -= 1;
  scheduler.OnTaskStarted(j);
  return id;
}

void SessionEngine::EndAttempt(int j, size_t task_id, size_t index) {
  std::vector<Attempt>& attempts =
      jobs[static_cast<size_t>(j)].tasks[task_id].attempts;
  const int node = attempts[index].node;
  attempts.erase(attempts.begin() + static_cast<std::ptrdiff_t>(index));
  // A session keeps every task to its end; a finished one holds no storage.
  if (attempts.empty()) attempts.shrink_to_fit();
  scheduler.OnTaskFinished(j);
  // A dead node's slots come back with the node (ApplyRevive).
  if (dfs->cluster().node(node).alive()) {
    free_slots[static_cast<size_t>(node)] += 1;
  }
}

void SessionEngine::AssignTask(int j, size_t task_id, int node) {
  jobs[static_cast<size_t>(j)].tasks[task_id].status = TaskStatus::kRunning;
  DispatchRead(j, task_id, StartAttempt(j, task_id, node), node);
}

void SessionEngine::TrySpeculate(int node, int* assigned) {
  // A straggler is a running task whose elapsed time exceeds
  // kSpeculativeLagFactor times its job's average completed-task
  // duration. One duplicate per task, never on the task's own node;
  // most-overdue first, ties to the lowest (job, task) — all decided on
  // event-thread state, so serial and parallel pick identically.
  int best_j = -1;
  size_t best_t = 0;
  double best_overdue = 0.0;
  for (JobExec& job : jobs) {
    if (job.phase != JobExec::Phase::kActive) continue;
    if (job.submitted->kind != ClusterSession::Submitted::Kind::kQuery) {
      continue;
    }
    double done_rr = 0.0;
    uint32_t done_count = 0;
    for (const TaskState& t : job.tasks) {
      if (t.status == TaskStatus::kDone) {
        done_rr += t.rr_seconds;
        ++done_count;
      }
    }
    if (done_count == 0) continue;  // no duration estimate yet
    const double avg = constants().task_setup_s +
                       done_rr / static_cast<double>(done_count) +
                       constants().task_cleanup_s;
    const double threshold = kSpeculativeLagFactor * avg;
    for (size_t i = 0; i < job.tasks.size(); ++i) {
      const TaskState& t = job.tasks[i];
      if (t.status != TaskStatus::kRunning || t.speculated) continue;
      const Attempt& own = t.attempts[t.own()];
      if (own.node == node) continue;
      const double elapsed = events.Now() - own.start;
      if (elapsed <= threshold) continue;
      const double overdue = elapsed - threshold;
      if (best_j < 0 || overdue > best_overdue) {
        best_j = job.id;
        best_t = i;
        best_overdue = overdue;
      }
    }
  }
  if (best_j < 0) return;
  jobs[static_cast<size_t>(best_j)].tasks[best_t].speculated = true;
  const int attempt = StartAttempt(best_j, best_t, node);
  ++result.speculative_attempts;
  *assigned += 1;
  DispatchRead(best_j, best_t, attempt, node);
}

void SessionEngine::DispatchRead(int j, size_t task_id, int attempt,
                                 int node) {
  // The completion event's FIFO slot is reserved here, at assignment; the
  // loop joins the read before the simulation can reach the task's
  // earliest possible completion instant.
  InFlight f;
  f.job = j;
  f.task_id = task_id;
  f.attempt = attempt;
  f.node = node;
  f.assign_time = events.Now();
  f.earliest_completion =
      f.assign_time + constants().task_setup_s + constants().task_cleanup_s;
  f.seq = events.ReserveSeq();
  const InputSplit* split = jobs[static_cast<size_t>(j)].tasks[task_id].split;
  if (parallel) {
    f.future = pool->Submit(
        [this, j, split, node] { return ExecuteRead(j, *split, node); });
  } else {
    std::promise<ReadOutcome> done;
    done.set_value(ExecuteRead(j, *split, node));
    f.future = done.get_future();
  }
  inflight.push_back(std::move(f));
}

void SessionEngine::AssignUpload(int j, size_t task_id, int node) {
  jobs[static_cast<size_t>(j)].tasks[task_id].status = TaskStatus::kRunning;
  StartAttempt(j, task_id, node);
  // The upload writes shared DFS state, so it runs in the commit window.
  // Its completion's FIFO rank is reserved here, and its simulated start
  // is this event's instant either way.
  const uint64_t seq = events.ReserveSeq();
  commits.push_back(
      [this, j, task_id, node, seq] { ExecuteUpload(j, task_id, node, seq); });
}

void SessionEngine::ExecuteUpload(int j, size_t task_id, int node,
                                  uint64_t seq) {
  JobExec& job = jobs[static_cast<size_t>(j)];
  TaskState& task = job.tasks[task_id];
  const UploadJobSpec& spec = job.submitted->upload;
  const UploadJobSpec::File& file = *task.file;
  const sim::SimTime start = events.Now();
  sim::SimTime completed_at = start;
  Status st;
  if (spec.system == System::kHail) {
    Result<HailUploadReport> rep = HailUploadTextFile(
        dfs, spec.hail, node, file.dfs_path, file.text, start);
    if (rep.ok()) {
      completed_at = rep->completed;
    } else {
      st = rep.status();
    }
  } else {
    Result<hdfs::UploadReport> rep =
        hdfs::UploadTextFile(dfs, node, file.dfs_path, file.text, start);
    if (rep.ok()) {
      completed_at = rep->completed;
    } else {
      st = rep.status();
    }
  }
  // An upload task runs exactly one attempt.
  if (!st.ok()) {
    // Per-tenant failure: the upload job dies, the cluster lives on.
    EndAttempt(j, task_id, 0);
    task.status = TaskStatus::kDone;
    FailJob(j, std::move(st));
    Kick(node);
    return;
  }
  // The ingest runs inside a task wrapper: it holds its slot for the
  // upload's simulated duration plus the usual task setup/cleanup.
  task.rr_seconds = std::max(0.0, completed_at - start);
  const double duration =
      constants().task_setup_s + task.rr_seconds + constants().task_cleanup_s;
  const int attempt = task.attempts.front().id;
  events.ScheduleAtReserved(seq, start + duration,
                            [this, j, task_id, attempt] {
                              OnTaskComplete(j, task_id, attempt,
                                             /*rr_seconds=*/0.0,
                                             /*outcome=*/nullptr);
                            });
}

void SessionEngine::JoinOldest() {
  InFlight f = std::move(inflight.front());
  inflight.pop_front();
  // The outcome travels inside the completion event instead of being
  // written into TaskState here: with speculation two attempts of one task
  // can be live at once, and only the completion order decides whose
  // results count. (EventQueue callbacks are copyable std::functions,
  // hence the shared_ptr.)
  auto oc = std::make_shared<ReadOutcome>(f.future.get());
  // A failed attempt still occupied its slot for setup + cleanup before
  // reporting the error.
  double duration = constants().task_setup_s + constants().task_cleanup_s;
  double rr = 0.0;
  if (oc->cost.ok()) {
    // Slow nodes stretch the data-access portion of the attempt.
    const double factor = options->fault_plan.slow_factor(f.node);
    rr = constants().task_rr_init_ms / 1000.0 + oc->cost->total() * factor;
    duration += oc->cost->total() * factor;
  }
  events.ScheduleAtReserved(
      f.seq, f.assign_time + duration,
      [this, j = f.job, task_id = f.task_id, attempt = f.attempt, rr, oc] {
        OnTaskComplete(j, task_id, attempt, rr, oc);
      });
}

void SessionEngine::AccountUsage(int j, const TaskState& task,
                                 double slot_seconds) {
  // Sized to the queue count in Run; queues only register there.
  QueueUsage& u = result.queues[static_cast<size_t>(scheduler.queue_of(j))];
  u.tasks += 1;
  u.slot_seconds += slot_seconds;
  if (task.contended) {
    u.contended_tasks += 1;
    u.contended_slot_seconds += slot_seconds;
  }
}

void SessionEngine::OnTaskComplete(int j, size_t task_id, int attempt,
                                   double rr_seconds,
                                   const std::shared_ptr<ReadOutcome>& outcome) {
  JobExec& job = jobs[static_cast<size_t>(j)];
  TaskState& task = job.tasks[task_id];
  // Corrupt-replica sightings are reported no matter whose attempt this is
  // — the failed-over read really happened. The report goes on the commit
  // list ahead of any kill requested below.
  if (outcome != nullptr && !outcome->bad_replicas.empty()) {
    commits.push_back([this, reports = outcome->bad_replicas] {
      for (const BadReplicaReport& r : reports) {
        (void)dfs->ReportBadReplica(r.block_id, r.datanode);
      }
      IngestRepairs();
    });
  }
  const auto it =
      std::find_if(task.attempts.begin(), task.attempts.end(),
                   [attempt](const Attempt& a) { return a.id == attempt; });
  // No record: preemption or the failure detector already ended it.
  if (it == task.attempts.end()) return;
  const size_t index = static_cast<size_t>(it - task.attempts.begin());
  const Attempt a = *it;
  const int node = a.node;
  if (a.lost) {
    // The losing attempt of a task whose race already ended: give the
    // slot back, discard the result — but bill the duplicate's reader
    // cost to the tenant as wasted speculation (the cluster did the work).
    if (first_error.ok() && outcome != nullptr && outcome->cost.ok()) {
      const double lost = outcome->cost->total();
      job.waste_ledger.Bill(obs::CostBucket::kWastedSpeculation, lost);
      job.waste_seconds += lost;
      if (tracing()) {
        const double factor = options->fault_plan.slow_factor(node);
        const double duration = constants().task_setup_s +
                                constants().task_cleanup_s + lost * factor;
        const sim::SimTime start = events.Now() - duration;
        const uint64_t sp = tracer->AddSpan("map_task", "task", start,
                                            duration, job.span, node);
        tracer->Attr(sp, "task", static_cast<uint64_t>(task_id));
        tracer->Attr(sp, "attempt", static_cast<int64_t>(attempt));
        tracer->Attr(sp, "node", static_cast<int64_t>(node));
        tracer->Attr(sp, "result", "speculative_loser");
        tracer->Attr(sp, "wasted_cost_seconds", lost);
        tracer->Splice(outcome->trace, sp, node,
                       start + constants().task_setup_s, factor);
      }
    }
    EndAttempt(j, task_id, index);
    if (dfs->cluster().node(node).alive()) Kick(node);
    return;
  }
  if (job.phase == JobExec::Phase::kFailed) {
    // Sibling task of a tenant that already failed: just give the slot
    // back to the cluster. This must run even after the session's last
    // job finished (session_done) — a zombie slot would otherwise block
    // the post-session maintenance drain on this node.
    EndAttempt(j, task_id, index);
    if (task.live_attempts() == 0) task.status = TaskStatus::kDone;
    if (dfs->cluster().node(node).alive()) Kick(node);
    return;
  }
  if (session_done) return;
  if (!dfs->cluster().node(node).alive()) {
    return;  // node died mid-run; the failure detector handles it
  }
  if (outcome != nullptr && !outcome->cost.ok()) {
    HandleFailedAttempt(j, task_id, index, outcome->cost.status());
    return;
  }

  // First completion wins: every other attempt of the task is marked lost,
  // and its arrival only returns its slot. A win by the duplicate counts
  // as a speculative win.
  if (index != task.own()) ++result.speculative_wins;
  EndAttempt(j, task_id, index);
  for (Attempt& other : task.attempts) other.lost = true;
  if (outcome != nullptr) {
    task.output = std::move(outcome->output);
    task.stats = outcome->stats;
    task.ledger = outcome->cost->ledger;
    task.billed_seconds = outcome->cost->total();
    // RecordReader time = one-time reader construction + the data access
    // (already stretched by the executing node's slow factor).
    task.rr_seconds = rr_seconds;
  }
  task.status = TaskStatus::kDone;
  task.output_node = node;
  ++job.completed;
  if (tracing()) {
    const uint64_t sp = tracer->AddSpan(
        outcome != nullptr ? "map_task" : "upload_task", "task", a.start,
        events.Now() - a.start, job.span, node);
    tracer->Attr(sp, "task", static_cast<uint64_t>(task_id));
    tracer->Attr(sp, "attempt", static_cast<int64_t>(attempt));
    tracer->Attr(sp, "node", static_cast<int64_t>(node));
    if (outcome != nullptr) {
      tracer->Attr(sp, "records", task.stats.records_seen);
      tracer->Attr(sp, "qualifying", task.stats.records_qualifying);
      tracer->Attr(sp, "billed_cost_seconds", task.billed_seconds);
      tracer->Attr(sp, "billed_cost_nanos", task.ledger.total_nanos);
      tracer->Splice(outcome->trace, sp, node,
                     a.start + constants().task_setup_s,
                     options->fault_plan.slow_factor(node));
    } else if (task.file != nullptr) {
      tracer->Attr(sp, "file", task.file->dfs_path);
    }
  }
  AccountUsage(j, task,
               constants().task_setup_s + task.rr_seconds +
                   constants().task_cleanup_s);

  // Failure injection: kill a victim once the designated job crosses its
  // progress threshold ("we kill all Java processes ... after 50% of work
  // progress", §6.4.3). Time-triggered kills fired via their own events.
  for (size_t k = 0; k < options->fault_plan.kills.size(); ++k) {
    const sim::FaultPlan::Kill& kill = options->fault_plan.kills[k];
    if (kill_fired[k] || kill.at_progress < 0.0) continue;
    if (j != kill.progress_job) continue;
    if (static_cast<double>(job.completed) >=
        kill.at_progress * static_cast<double>(job.tasks.size())) {
      kill_fired[k] = 1;
      RequestKill(kill.node, kill.revive_after);
    }
  }

  if (job.completed == job.tasks.size()) {
    JobDone(j);
    if (session_done) return;  // idle cluster: only maintenance remains
  }
  Kick(node);
}

void SessionEngine::HandleFailedAttempt(int j, size_t task_id, size_t index,
                                        const Status& st) {
  JobExec& job = jobs[static_cast<size_t>(j)];
  TaskState& task = job.tasks[task_id];
  const Attempt a = task.attempts[index];
  if (tracing()) {
    const uint64_t sp = tracer->AddSpan("map_task", "task", a.start,
                                        events.Now() - a.start, job.span,
                                        a.node);
    tracer->Attr(sp, "task", static_cast<uint64_t>(task_id));
    tracer->Attr(sp, "attempt", static_cast<int64_t>(a.id));
    tracer->Attr(sp, "node", static_cast<int64_t>(a.node));
    tracer->Attr(sp, "result", "failed");
    tracer->Attr(sp, "error", st.message());
  }
  EndAttempt(j, task_id, index);
  Kick(a.node);
  // The task's other copy runs on as its only attempt.
  if (task.live_attempts() > 0) return;
  // Retryable failures (dead replica set, exhausted failover) requeue
  // with capped exponential backoff; anything else — and the attempt cap
  // — fails the job cleanly instead of requeueing forever.
  const bool retryable = st.IsUnavailable() || st.IsCorruption();
  if (!retryable || task.reschedules + 1 >= kMaxTaskAttempts) {
    task.status = TaskStatus::kDone;  // attempt retired; job is over
    FailJob(j, st);
    return;
  }
  task.status = TaskStatus::kPending;
  task.awaiting_backoff = true;
  task.reschedules += 1;
  ++result.task_retries;
  double backoff = kRetryBackoffS;
  for (int i = 1; i < task.reschedules; ++i) backoff *= 2.0;
  backoff = std::min(backoff, kRetryBackoffMaxS);
  events.ScheduleAfter(backoff, [this, j, task_id] {
    TaskState& t = jobs[static_cast<size_t>(j)].tasks[task_id];
    const bool still_wanted =
        t.awaiting_backoff &&
        jobs[static_cast<size_t>(j)].phase == JobExec::Phase::kActive &&
        !session_done;
    t.awaiting_backoff = false;
    if (still_wanted) Requeue(j, task_id);
  });
}

void SessionEngine::OnFailureDetected(int node) {
  // Re-replication sees the loss first: every replica the dead node held
  // goes onto the namenode's under-replicated queue — even when the
  // session is already winding down, because that queue outlives it.
  if (options->self_heal) {
    dfs->namenode().EnqueueLostNodeReplicas(node);
    IngestRepairs();
    // Queued repairs that were targeted at the dead node need a new home.
    std::deque<size_t>& fifo =
        background_by_node[static_cast<size_t>(node)][kRepairFifo];
    while (!fifo.empty()) {
      const size_t id = fifo.front();
      fifo.pop_front();
      PlaceRepair(id);
    }
  }
  if (session_done) return;
  // Every attempt of an active job on the dead node ends here (its slot
  // died with it; a late completion finds no record). A running query
  // task left without a live attempt, and a finished one whose map output
  // sat on the dead node, re-run elsewhere. Jobs already done keep their
  // numbers (fixed at completion); upload tasks are not re-executed —
  // their pipeline writes committed at assignment and live on the chain's
  // surviving replicas — a running upload task simply completes here.
  for (JobExec& job : jobs) {
    if (job.phase != JobExec::Phase::kActive) continue;
    const bool upload =
        job.submitted->kind == ClusterSession::Submitted::Kind::kUpload;
    for (size_t i = 0; i < job.tasks.size(); ++i) {
      TaskState& task = job.tasks[i];
      for (size_t k = task.attempts.size(); k-- > 0;) {
        const Attempt a = task.attempts[k];
        if (a.node != node) continue;
        EndAttempt(job.id, i, k);
        if (!upload) continue;
        task.status = TaskStatus::kDone;
        ++job.completed;
        // The slot vanished at the kill instant: charge only the
        // occupancy the node actually provided, not the full nominal
        // duration (queries in the same situation re-run and account
        // their successful attempt only).
        const double nominal = constants().task_setup_s + task.rr_seconds +
                               constants().task_cleanup_s;
        const double held = dfs->cluster().node(node).death_time() - a.start;
        AccountUsage(job.id, task, std::clamp(held, 0.0, nominal));
      }
      if (upload) continue;
      if (task.status == TaskStatus::kDone && task.output_node == node) {
        task.output.reset();
        --job.completed;
      } else if (task.status != TaskStatus::kRunning ||
                 task.live_attempts() > 0) {
        continue;
      }
      task.reschedules += 1;
      Requeue(job.id, i);
    }
    if (upload && job.completed == job.tasks.size()) {
      JobDone(job.id);
      if (session_done) return;
    }
  }
}

void SessionEngine::RunLoop() {
  for (;;) {
    // Join every in-flight read whose completion event could precede the
    // next queued event — (earliest_completion, reserved seq) is a strict
    // lower bound on the completion event's (time, seq) key, so the
    // simulation never runs past an unscheduled completion.
    while (!inflight.empty()) {
      bool join_now = true;
      if (events.pending() > 0) {
        const auto [when, seq] = events.NextKey();
        const InFlight& f = inflight.front();
        join_now = f.earliest_completion < when ||
                   (f.earliest_completion == when && f.seq < seq);
      }
      if (!join_now) break;
      JoinOldest();
    }
    if (!first_error.ok()) break;
    if (events.pending() == 0) {
      if (inflight.empty()) break;
      continue;  // only in-flight reads remain; join them next pass
    }
    events.RunOne();
    if (commits.empty()) continue;
    // The commit barrier: every in-flight read was assigned before these
    // mutations and must observe (and may be concurrently reading) the
    // pre-mutation state, so all of them join first. The mutations then
    // apply in the order the event requested them.
    while (!inflight.empty()) JoinOldest();
    std::vector<std::function<void()>> batch = std::move(commits);
    commits.clear();
    for (const std::function<void()>& commit : batch) commit();
  }
  // Error exit: wait out any stragglers so no pool thread touches this
  // engine after Run returns; their results are discarded. The remaining
  // events still run (failure detection, for one, still feeds the
  // namenode's repair queue), but the commits they request never apply.
  while (!inflight.empty()) {
    inflight.front().future.wait();
    inflight.pop_front();
  }
  events.RunUntilEmpty();
}

JobResult SessionEngine::AssembleResult(const JobExec& job) const {
  const ClusterSession::Submitted& sub = *job.submitted;
  JobResult out;
  out.job_name = sub.kind == ClusterSession::Submitted::Kind::kQuery
                     ? sub.spec.name
                     : sub.upload.name;
  // Per-job latency on the shared clock: completion minus submission.
  out.end_to_end_seconds = job.finish_time - sub.submit_time;
  out.map_tasks = static_cast<uint32_t>(job.tasks.size());

  // Per-query cost attribution: winning attempts' reader ledgers plus the
  // engine-level waste billed to this tenant (preemptions, speculative
  // losers). Buckets sum exactly to the billed total by construction.
  out.index_column = sub.kind == ClusterSession::Submitted::Kind::kQuery
                         ? job.plan.index_column
                         : -1;
  out.planned = job.plan.planned;
  out.predicted_cost_seconds = job.plan.predicted_cost_seconds;
  out.cost = job.waste_ledger;
  out.billed_cost_seconds = job.waste_seconds;

  double rr_sum = 0.0;
  for (const TaskState& task : job.tasks) {
    rr_sum += task.rr_seconds;
    out.records_seen += task.stats.records_seen;
    out.records_qualifying += task.stats.records_qualifying;
    out.bad_records_seen += task.stats.bad_records;
    out.rescheduled_tasks += static_cast<uint32_t>(task.reschedules);
    out.cost.Add(task.ledger);
    out.billed_cost_seconds += task.billed_seconds;
    out.blocks_scanned += task.stats.blocks_scanned;
    out.blocks_skipped += task.stats.blocks_skipped;
    out.rows_skipped += task.stats.rows_skipped;
    out.zone_skipped_blocks += task.stats.zone_skipped_blocks;
    if (task.stats.fallback_scan) out.fallback_scans += 1;
    if (task.stats.index_scan) out.index_scan_tasks += 1;
    if (task.stats.unclustered_scan) out.unclustered_scan_tasks += 1;
    if (task.output != nullptr) {
      out.output_count += task.output->count();
      if (sub.kind == ClusterSession::Submitted::Kind::kQuery &&
          sub.spec.collect_output) {
        for (const std::string& row : task.output->rows()) {
          out.output_rows.push_back(row);
        }
      }
    }
  }
  out.avg_record_reader_seconds =
      rr_sum / static_cast<double>(job.tasks.size());
  // T_ideal = #MapTasks / #ParallelMapTasks * Avg(T_RecordReader) (§6.4.1).
  out.ideal_seconds = static_cast<double>(job.tasks.size()) /
                      static_cast<double>(total_slots) *
                      out.avg_record_reader_seconds;
  out.overhead_seconds = out.end_to_end_seconds - out.ideal_seconds;

  // Background maintenance is session-scoped; every job reports the
  // session totals (a single-job session reads exactly like the old
  // single-job runner).
  out.maintenance_scheduled = result.maintenance_scheduled;
  out.maintenance_completed = result.maintenance_completed;
  out.maintenance_failed = result.maintenance_failed;
  return out;
}

// ---------------------------------------------------------------------------
// ClusterSession
// ---------------------------------------------------------------------------

ClusterSession::ClusterSession(hdfs::MiniDfs* dfs, SessionOptions options)
    : dfs_(dfs), options_(std::move(options)) {}

int ClusterSession::Submit(JobSpec spec, std::string queue,
                           sim::SimTime submit_time, int depends_on) {
  Submitted sub;
  sub.kind = Submitted::Kind::kQuery;
  sub.spec = std::move(spec);
  sub.queue = std::move(queue);
  sub.submit_time = submit_time;
  sub.depends_on = depends_on;
  jobs_.push_back(std::move(sub));
  return static_cast<int>(jobs_.size()) - 1;
}

int ClusterSession::SubmitUpload(UploadJobSpec upload, std::string queue,
                                 sim::SimTime submit_time, int depends_on) {
  Submitted sub;
  sub.kind = Submitted::Kind::kUpload;
  sub.upload = std::move(upload);
  sub.queue = std::move(queue);
  sub.submit_time = submit_time;
  sub.depends_on = depends_on;
  jobs_.push_back(std::move(sub));
  return static_cast<int>(jobs_.size()) - 1;
}

Result<SessionResult> ClusterSession::Run() {
  if (ran_) {
    return Status::FailedPrecondition("ClusterSession::Run is single-use");
  }
  ran_ = true;
  if (jobs_.empty()) {
    return Status::InvalidArgument("session has no jobs");
  }
  sim::SimCluster& cluster = dfs_->cluster();
  HAIL_RETURN_NOT_OK(
      options_.fault_plan.Validate(cluster.num_nodes(), jobs_.size()));
  // Session boundary: reset resource bookings and revive dead nodes once
  // for the whole session (jobs inside it share cluster state).
  dfs_->ResetForSession();

  SessionEngine eng;
  eng.dfs = dfs_;
  eng.options = &options_;
  eng.scheduler = SlotScheduler(options_.policy, options_.queue_weights);
  eng.parallel = ResolveMode(options_.execution) == ExecutionMode::kParallel;
  if (eng.parallel) eng.pool = SharedPool();
  eng.tracer = options_.tracer;
  if (eng.tracer != nullptr) {
    eng.session_span = eng.tracer->AddSpan("session", "session", 0.0, 0.0,
                                           /*parent=*/0, /*lane=*/-1);
    eng.tracer->Attr(eng.session_span, "jobs",
                     static_cast<uint64_t>(jobs_.size()));
    eng.tracer->Attr(eng.session_span, "nodes",
                     static_cast<int64_t>(cluster.num_nodes()));
  }

  const sim::FaultPlan& faults = options_.fault_plan;
  eng.kill_fired.assign(faults.kills.size(), 0);

  // Session-start corruptions (at_time <= 0) land before any plan or
  // read: the fault exists from the first instant in both execution modes.
  for (const sim::FaultPlan::Corrupt& c : faults.corruptions) {
    if (c.at_time <= 0.0) eng.ApplyCorrupt(c.node, c.nth_block);
  }

  eng.jobs.resize(jobs_.size());
  for (size_t i = 0; i < jobs_.size(); ++i) {
    JobExec& job = eng.jobs[i];
    job.submitted = &jobs_[i];
    job.id = static_cast<int>(i);
    eng.scheduler.RegisterJob(jobs_[i].queue);
    const auto slo = options_.queue_slo_s.find(jobs_[i].queue);
    if (slo != options_.queue_slo_s.end() && slo->second > 0.0) {
      eng.scheduler.SetJobDeadline(static_cast<int>(i),
                                   jobs_[i].submit_time + slo->second);
    }
  }
  eng.result.queues.resize(eng.scheduler.queues().size());

  // Admit every immediately-submitted job now (plans computed against the
  // session-start DFS state, exactly like the single-job runner did).
  bool any_admissible = false;
  for (JobExec& job : eng.jobs) {
    const Submitted& sub = *job.submitted;
    if (job.phase != JobExec::Phase::kWaiting) continue;  // failed already
    if (sub.depends_on >= 0) {
      if (sub.depends_on >= job.id) {
        eng.FailJob(job.id, Status::InvalidArgument(
                                "depends_on must name an earlier job"));
      } else {
        any_admissible = true;  // admitted when the dependency completes
      }
      continue;
    }
    if (sub.submit_time > 0.0) {
      any_admissible = true;  // admission event scheduled below
      continue;
    }
    eng.AdmitJob(job.id);
    if (job.phase == JobExec::Phase::kStarting) any_admissible = true;
  }
  if (!any_admissible) {
    // Nothing can ever run (every job failed admission): report per-job
    // errors without touching cluster or adaptive-manager state — an
    // aborted session must never swallow the maintenance queue.
    SessionResult out;
    for (const JobExec& job : eng.jobs) {
      out.jobs.push_back(Result<JobResult>(job.error));
    }
    return out;
  }

  eng.free_slots.resize(static_cast<size_t>(cluster.num_nodes()));
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    eng.free_slots[static_cast<size_t>(i)] =
        cluster.node(i).alive() ? cluster.node(i).profile().map_slots : 0;
    eng.total_slots += eng.free_slots[static_cast<size_t>(i)];
  }
  if (eng.total_slots == 0) {
    return Status::FailedPrecondition("no alive TaskTrackers");
  }

  // Background work runs on slots with no foreground work, and whatever
  // does not finish goes back. Losses recorded by earlier sessions wait in
  // the namenode; a self-healing session picks them up at the boundary,
  // then takes every pending adaptive rewrite.
  eng.background_by_node.resize(static_cast<size_t>(cluster.num_nodes()));
  eng.IngestRepairs();
  if (options_.adaptive != nullptr) {
    eng.EnqueueMaintTasks(options_.adaptive->TakeTasks());
  }

  // Activation + deferred-admission events. For time-0 jobs the admission
  // already happened; their tasks appear once startup + split phase has
  // been paid.
  sim::SimTime first_eligible = -1.0;
  for (JobExec& job : eng.jobs) {
    const int id = job.id;
    if (job.phase == JobExec::Phase::kStarting) {
      eng.events.ScheduleAt(job.eligible_at,
                            [&eng, id] { eng.ActivateJob(id); });
      if (first_eligible < 0.0 || job.eligible_at < first_eligible) {
        first_eligible = job.eligible_at;
      }
    } else if (job.phase == JobExec::Phase::kWaiting &&
               job.submitted->depends_on < 0) {
      eng.events.ScheduleAt(job.submitted->submit_time,
                            [&eng, id] { eng.AdmitAndActivate(id); });
    }
  }

  // Time-triggered faults fire as plain events; progress-triggered kills
  // are checked in OnTaskComplete.
  for (const sim::FaultPlan::Kill& kill : faults.kills) {
    if (kill.at_time < 0.0) continue;
    const int victim = kill.node;
    const double revive_after = kill.revive_after;
    eng.events.ScheduleAt(kill.at_time, [&eng, victim, revive_after] {
      eng.RequestKill(victim, revive_after);
    });
  }
  for (const sim::FaultPlan::Corrupt& c : faults.corruptions) {
    if (c.at_time <= 0.0) continue;  // applied at the session boundary
    const int cn = c.node;
    const int nth = c.nth_block;
    eng.events.ScheduleAt(c.at_time, [&eng, cn, nth] {
      eng.commits.push_back([&eng, cn, nth] { eng.ApplyCorrupt(cn, nth); });
    });
  }

  // Per-node TaskTracker heartbeats, staggered like real daemon start
  // times, from the first instant any job can have work.
  const sim::SimTime t0 = first_eligible >= 0.0 ? first_eligible : 0.0;
  const sim::CostConstants& c = cluster.constants();
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    if (!cluster.node(i).alive()) continue;
    const double stagger = c.heartbeat_interval_s *
                           (static_cast<double>(i) + 1.0) /
                           static_cast<double>(cluster.num_nodes());
    // Each TaskTracker re-schedules its own periodic heartbeat.
    struct Beat {
      SessionEngine* eng;
      int node;
      double interval;
      void operator()() const {
        eng->Heartbeat(node);
        // Starvation guard: a session that cannot make progress (all
        // replicas of a pending block dead, or a logic error) must not
        // heartbeat forever.
        if (eng->events.executed() > 50'000'000 && eng->first_error.ok()) {
          eng->first_error = Status::Unknown("scheduler starved (event cap)");
          eng->session_done = true;
        }
        if (!eng->session_done) {
          SessionEngine* e = eng;
          int n = node;
          double iv = interval;
          eng->events.ScheduleAfter(interval, Beat{e, n, iv});
        }
      }
    };
    eng.events.ScheduleAt(t0 + stagger, Beat{&eng, i, c.heartbeat_interval_s});
  }

  eng.RunLoop();
  if (eng.tracer != nullptr && eng.session_span != 0) {
    // The loop drains to an empty queue: Now() is the last event's instant.
    eng.tracer->SetEnd(eng.session_span, eng.events.Now());
  }

  // Unfinished background work goes back *before* any error exit: a
  // failed session must lose neither a lost replica, which stays on the
  // namenode's books until some session re-creates it, nor queued
  // reorganization work, which returns to the manager.
  std::vector<adaptive::MaintenanceTask> unfinished;
  for (const BackgroundTask& t : eng.background) {
    if (t.status == BackgroundTask::Status::kDone) continue;
    if (t.repair != nullptr) {
      dfs_->namenode().RequeueUnderReplicated(*t.repair);
    } else {
      unfinished.push_back(t.rewrite);
    }
  }
  if (options_.adaptive != nullptr) {
    options_.adaptive->ReturnUnfinished(std::move(unfinished));
    options_.adaptive->NoteCompleted(eng.result.maintenance_completed,
                                     eng.result.maintenance_failed);
  }
  HAIL_RETURN_NOT_OK(eng.first_error);
  for (const JobExec& job : eng.jobs) {
    if (job.phase != JobExec::Phase::kDone &&
        job.phase != JobExec::Phase::kFailed) {
      const Submitted& sub = *job.submitted;
      const std::string& name = sub.kind == Submitted::Kind::kQuery
                                    ? sub.spec.name
                                    : sub.upload.name;
      return Status::Unknown("job '" + name +
                             "' did not complete (scheduler starved)");
    }
  }

  // ---- assemble the results ----
  SessionResult& out = eng.result;
  out.jobs.reserve(eng.jobs.size());
  for (const JobExec& job : eng.jobs) {
    // Failed tenants still held the cluster until their failure instant —
    // the session makespan covers them too.
    out.session_seconds = std::max(out.session_seconds, job.finish_time);
    if (job.phase == JobExec::Phase::kFailed) {
      out.jobs.push_back(Result<JobResult>(job.error));
      continue;
    }
    out.jobs.push_back(eng.AssembleResult(job));
  }
  const auto& queues = eng.scheduler.queues();
  for (size_t q = 0; q < queues.size(); ++q) {
    out.queues[q].queue = queues[q].name;
    out.queues[q].weight = queues[q].weight;
    const auto slo = options_.queue_slo_s.find(queues[q].name);
    if (slo != options_.queue_slo_s.end() && slo->second > 0.0) {
      out.queues[q].slo_target_s = slo->second;
    }
  }
  // Per-queue latency distribution + SLO accounting over completed jobs.
  std::vector<std::vector<double>> latencies(queues.size());
  for (const JobExec& job : eng.jobs) {
    if (job.phase != JobExec::Phase::kDone) continue;
    const size_t q = static_cast<size_t>(eng.scheduler.queue_of(job.id));
    const double latency = job.finish_time - job.submitted->submit_time;
    latencies[q].push_back(latency);
    out.queues[q].jobs_completed += 1;
    if (out.queues[q].slo_target_s > 0.0 &&
        latency > out.queues[q].slo_target_s) {
      out.queues[q].slo_violations += 1;
    }
  }
  for (size_t q = 0; q < queues.size(); ++q) {
    std::vector<double>& lat = latencies[q];
    if (lat.empty()) continue;
    std::sort(lat.begin(), lat.end());
    // Nearest-rank percentile: ceil(p * N) as a 1-based rank.
    const auto pct = [&lat](double p) {
      const size_t rank = static_cast<size_t>(
          std::ceil(p * static_cast<double>(lat.size())));
      return lat[std::min(lat.size(), std::max<size_t>(rank, 1)) - 1];
    };
    out.queues[q].latency_p50_s = pct(0.50);
    out.queues[q].latency_p95_s = pct(0.95);
    out.queues[q].latency_p99_s = pct(0.99);
    out.slo_violations_total += out.queues[q].slo_violations;
  }
  out.under_replicated_remaining = dfs_->namenode().under_replicated_count();

  // Mirror the session's engine counters into the cluster's unified
  // registry (monotonic across sessions; a snapshot after N sessions is
  // byte-identical serial vs parallel because every delta is).
  {
    obs::MetricsRegistry& m = dfs_->metrics();
    m.counter("scheduler.sessions")->Inc();
    m.counter("scheduler.jobs_submitted")->Add(jobs_.size());
    m.counter("scheduler.jobs_completed")
        ->Add(static_cast<uint64_t>(eng.completion_order.size()));
    m.counter("scheduler.jobs_shed")->Add(out.jobs_shed);
    m.counter("scheduler.preemptions")->Add(out.preemptions);
    m.counter("scheduler.task_retries")->Add(out.task_retries);
    m.counter("scheduler.speculative_attempts")->Add(out.speculative_attempts);
    m.counter("scheduler.speculative_wins")->Add(out.speculative_wins);
    m.counter("scheduler.slo_violations")->Add(out.slo_violations_total);
    m.gauge("scheduler.preempted_slot_seconds")
        ->Add(out.preempted_slot_seconds);
    m.counter("maintenance.scheduled")->Add(out.maintenance_scheduled);
    m.counter("maintenance.completed")->Add(out.maintenance_completed);
    m.counter("maintenance.failed")->Add(out.maintenance_failed);
    // Like the planner counters below: absent until it counts something,
    // so snapshots of sessions that skip nothing keep their bytes.
    if (out.maintenance_converged > 0) {
      m.counter("maintenance.converged")->Add(out.maintenance_converged);
    }
    m.counter("repair.scheduled")->Add(out.repairs_scheduled);
    m.counter("repair.completed")->Add(out.repairs_completed);
    m.counter("repair.abandoned")->Add(out.repairs_abandoned);
    m.counter("replication.replicas_added")->Add(out.replicas_added);
    m.counter("replication.replicas_evicted")->Add(out.replicas_evicted);
    // Planner counters only materialize when planning is in play, so the
    // metric snapshots of planner-free runs stay byte-identical to before
    // the planner existed.
    if (out.jobs_planned > 0 || options_.plan_cache != nullptr ||
        out.stats_backfilled > 0) {
      uint64_t zone_skips = 0;
      for (const JobExec& job : eng.jobs) {
        for (const TaskState& task : job.tasks) {
          if (task.status == TaskStatus::kDone) {
            zone_skips += task.stats.zone_skipped_blocks;
          }
        }
      }
      m.counter("planner.jobs_planned")->Add(out.jobs_planned);
      m.counter("planner.blocks_skipped")->Add(zone_skips);
      m.counter("planner.plan_cache_hits")->Add(out.plan_cache_hits);
      m.counter("planner.plan_cache_misses")->Add(out.plan_cache_misses);
      m.counter("planner.plan_cache_invalidations")
          ->Add(out.plan_cache_invalidations);
      m.counter("planner.stats_backfilled")->Add(out.stats_backfilled);
    }
    obs::Histogram* rr = m.histogram(
        "task.rr_seconds", {0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0});
    obs::Counter* billed = m.counter("cost.billed_nanos_total");
    for (const JobExec& job : eng.jobs) {
      if (job.phase != JobExec::Phase::kDone) continue;
      billed->Add(job.waste_ledger.total_nanos);
      for (const TaskState& task : job.tasks) {
        if (task.status != TaskStatus::kDone) continue;
        rr->Observe(task.rr_seconds);
        billed->Add(task.ledger.total_nanos);
      }
    }
  }

  if (options_.adaptive != nullptr) {
    // Close the loop in completion order: record each finished query (and
    // its access paths) in the workload observer; the planner may queue
    // reorganization for the next session against the now-current replica
    // directory.
    for (int j : eng.completion_order) {
      const Submitted& sub = jobs_[static_cast<size_t>(j)];
      if (sub.kind != Submitted::Kind::kQuery) continue;
      if (eng.jobs[static_cast<size_t>(j)].observed) continue;  // online path
      const Result<JobResult>& r = out.jobs[static_cast<size_t>(j)];
      if (r.ok()) options_.adaptive->ObserveJob(sub.spec, *r);
    }
  }
  return std::move(out);
}

}  // namespace mapreduce
}  // namespace hail
