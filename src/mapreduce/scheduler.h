/// \file scheduler.h
/// \brief Shared-cluster multi-job scheduling on one simulated clock.
///
/// JobRunner::Run executes exactly one job per session; the paper's
/// scheduling results (§4.2, Fig. 6c/9) and the adaptive loop's "never
/// starve foreground" guarantee only become meaningful when several
/// tenants contend for the same map slots. A ClusterSession admits N jobs
/// — queries, uploads and the adaptive manager's background replica
/// maintenance — onto ONE simulated clock and ONE shared cluster state:
///
///  - per-session boundaries: node resources are reset and dead nodes
///    revived once at session start (MiniDfs::ResetForSession), not per
///    job, so tenants observe each other's resource bookings and faults;
///  - per-node TaskTracker heartbeats serve every admitted job; which job
///    a free slot goes to is decided by a SlotScheduler policy:
///      * kFifo  — Hadoop's default: strict submission order (earliest
///        job with pending work first; locality within the job);
///      * kFair  — Hadoop-fair-scheduler-style weighted queues: the queue
///        with the smallest running/weight deficit wins the slot
///        (work-conserving: an idle queue's share redistributes);
///  - upload jobs occupy map slots too: each source file is one slot task
///    whose simulated duration comes from the real upload pipeline, so
///    ingest and queries genuinely contend;
///  - background work stays strictly low priority across ALL tenants: an
///    adaptive replica rewrite or a self-healing repair is assigned only
///    when no foreground task of any active job is pending anywhere
///    (SessionResult records the invariant counter, which must stay 0).
///    Both kinds are one record type, queued in two FIFOs per node
///    (repairs drain first) and run through one prepare -> build ->
///    commit path.
///
/// Determinism: every scheduling decision is a pure function of the event
/// order — policy state (queue deficits, pending counts) mutates only on
/// the event thread. One event loop runs every session: completion and
/// failure-detection FIFO slots are reserved when the work is requested,
/// and each event's shared-DFS mutations go on one ordered commit list
/// that the loop applies after the event, once every in-flight read has
/// joined. Serial and parallel execution differ only in where reads and
/// background builds run, so they stay bit-identical across interleaved jobs
/// (tests/scheduler_test.cc pins it with %.17g dumps).
///
/// JobRunner::Run is now a one-job ClusterSession; its simulated outputs
/// are byte-identical to the pre-session engine.

#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "hail/hail_client.h"
#include "mapreduce/job.h"
#include "obs/trace.h"
#include "sim/fault_plan.h"
#include "util/result.h"

namespace hail {
namespace adaptive {
class AdaptiveManager;
}  // namespace adaptive
namespace planner {
class PlanCache;
}  // namespace planner
namespace mapreduce {

/// \brief How free map slots are shared between admitted jobs.
enum class SchedulerPolicy {
  /// Strict submission order (Hadoop's default JobQueueTaskScheduler):
  /// the earliest submitted job with pending work gets every slot.
  kFifo,
  /// Weighted fair sharing across named queues (Hadoop fair scheduler):
  /// each assignment goes to the queue with the smallest
  /// running_tasks/weight deficit; within a queue, earliest job first.
  kFair,
};

/// \brief Deterministic slot-allocation policy state.
///
/// Pure bookkeeping — the session engine reports pending counts and task
/// starts/finishes, and asks which job the next free slot should serve.
/// All decisions are deterministic functions of that call sequence, which
/// itself is a pure function of the simulated event order. SetPending and
/// SetJobDeadline keep the jobs with pending work indexed (per queue, and
/// by deadline), so a pick costs O(queues + log jobs), not O(jobs).
class SlotScheduler {
 public:
  struct QueueState {
    std::string name;
    double weight = 1.0;
    /// Foreground tasks of this queue currently occupying slots.
    uint32_t running = 0;
  };

  explicit SlotScheduler(SchedulerPolicy policy = SchedulerPolicy::kFifo,
                         const std::map<std::string, double>& weights = {});

  /// Registers a job (ids are dense, in call order = submission order);
  /// its queue is created on first sight with the configured weight
  /// (default 1.0). Queue order = first-registration order.
  int RegisterJob(const std::string& queue);

  /// The engine mirrors each job's unassigned foreground task count here.
  void SetPending(int job, size_t pending);

  void OnTaskStarted(int job);
  void OnTaskFinished(int job);

  /// Declares the job's SLO deadline on the session clock (submit time +
  /// its queue's latency target). Jobs without a deadline never enter the
  /// EDF escalation pass.
  void SetJobDeadline(int job, sim::SimTime deadline);

  /// Job that should receive the next free slot, -1 when no job has
  /// pending work. kFifo: lowest job id with pending work. kFair: first
  /// an EDF pass — among jobs already past their declared deadline at
  /// `now` with pending work, the earliest deadline wins (ties: lowest
  /// job id) — then the queue with minimal running/weight (ties:
  /// first-registered queue), then lowest job id within it.
  int PickNextJob(sim::SimTime now = 0.0) const;

  /// True while at least two queues have pending foreground work — the
  /// window in which fair-share entitlement is actually measurable.
  bool Contended() const;

  /// The queue's fair-share deficit, running tasks / weight: kFair gives
  /// the next slot to the smallest, and preemption takes one from the
  /// largest.
  double Share(int queue) const;
  /// Slots the queue's weight entitles it to out of `total_slots`.
  double EntitledSlots(int queue, int total_slots) const;

  int queue_of(int job) const;
  const std::vector<QueueState>& queues() const { return queues_; }

 private:
  int QueueIndex(const std::string& name);

  struct JobEntry {
    int queue = 0;
    size_t pending = 0;
    /// SLO deadline on the session clock; infinity = never escalates.
    sim::SimTime deadline = 0.0;
    bool has_deadline = false;
  };

  /// Adds (or removes) `job` to (from) the pending-work indexes.
  void IndexPending(int job, bool pending);

  SchedulerPolicy policy_;
  std::map<std::string, double> weights_;
  std::vector<QueueState> queues_;
  std::vector<JobEntry> jobs_;
  /// Per queue (indexed like queues_): ids of its jobs with pending work.
  std::vector<std::set<int>> pending_jobs_;
  /// (deadline, id) of every job with pending work and a deadline.
  std::set<std::pair<sim::SimTime, int>> pending_deadlines_;
  /// Queues whose pending_jobs_ set is non-empty.
  int queues_with_work_ = 0;
  /// Sum of the queue weights, added in registration order.
  double weight_sum_ = 0.0;
};

/// \brief An upload tenant: each source file is one slot-occupying task.
///
/// The task runs the real ingestion path (stock-HDFS text or HAIL) at its
/// assignment instant on whichever node the scheduler placed it (the
/// file's client_node is the locality preference), and holds its map slot
/// for the upload's simulated duration plus task setup/cleanup.
struct UploadJobSpec {
  struct File {
    /// Preferred (client) node; under contention the scheduler may place
    /// the ingest task elsewhere, which then acts as the client.
    int client_node = 0;
    std::string dfs_path;
    std::string text;
  };

  std::string name;
  /// kHadoop = stock text upload, kHail = PAX + per-replica indexes.
  /// (kHadoopPP ingestion is itself a MapReduce job chain and is not
  /// modelled as slot tasks.)
  System system = System::kHadoop;
  /// HAIL schema + per-replica sort columns (system == kHail only).
  HailUploadConfig hail;
  std::vector<File> files;
};

/// \brief Bounded admission for one queue (overload shedding).
///
/// Both limits are checked at admission time (activation instant, after
/// any submit-time/dependency deferral) and shed deterministically with
/// `Status::Overloaded` — a shed job never computes a plan, never holds a
/// slot, and never hangs its dependents (they fail fast too). Zero
/// disables the corresponding check.
struct AdmissionControl {
  /// Max unfinished jobs admitted to the queue; one more is shed.
  size_t max_backlog_jobs = 0;
  /// Shed when the queue's projected wait — pending foreground tasks x
  /// observed mean task slot-seconds / the queue's entitled slot share —
  /// exceeds this many seconds. Needs at least one completed task to
  /// estimate from; before that only the backlog bound applies.
  double shed_wait_s = 0.0;
};

/// \brief Where a session runs map-task reads and the builds of background
/// rewrites and repairs. Both modes drive the same event loop and the same
/// commit list, so every simulated output is identical; only wall-clock
/// time differs.
enum class ExecutionMode {
  /// kParallel when the shared worker pool has more than one thread,
  /// kSerial otherwise (with one worker there is nothing to overlap).
  kDefault,
  /// Reads and background builds run inline on the event thread.
  kSerial,
  /// Reads and background builds run on the shared worker pool.
  kParallel,
};

/// \brief Session-wide options (failure injection, policy, engine).
struct SessionOptions {
  SchedulerPolicy policy = SchedulerPolicy::kFifo;
  /// Per-queue fair-share weights; queues not listed weigh 1.0.
  std::map<std::string, double> queue_weights;
  /// Per-queue latency SLO: a job's deadline is submit_time + its queue's
  /// target. Under kFair, jobs past deadline escalate via EDF above the
  /// fair shares; violations are accounted per queue either way.
  std::map<std::string, double> queue_slo_s;
  /// Per-queue admission bounds; unlisted queues admit unboundedly.
  std::map<std::string, AdmissionControl> queue_admission;
  /// Allow the fair scheduler to preempt a running task of an over-share
  /// queue when another queue's pending task has waited longer than
  /// `preemption_catchup_s` (Hadoop fair-scheduler preemption timeout).
  /// The preempted attempt requeues; its wasted slot-seconds are billed
  /// to its queue as `preempted_slot_seconds`.
  bool preemption = false;
  double preemption_catchup_s = 60.0;
  /// Whether reads and background builds run inline or on the shared
  /// pool; nothing else in the session depends on it.
  ExecutionMode execution = ExecutionMode::kDefault;
  /// Background replica maintenance rides the whole session's idle slots.
  adaptive::AdaptiveManager* adaptive = nullptr;
  /// When non-null, job plans are cached here keyed on (spec, directory
  /// generation): repeat submissions of the same query skip both the plan
  /// computation and its billed planning CPU. Owned by the caller so the
  /// cache survives across sessions; invalidated automatically by any
  /// namenode directory mutation.
  planner::PlanCache* plan_cache = nullptr;
  /// Deterministic fault schedule: node kills (at a time or at a job's
  /// progress, with optional revive), per-(node, block) replica
  /// corruption, slow-node factors. The only fault-injection surface;
  /// Run rejects a plan that can never fire (FaultPlan::Validate).
  sim::FaultPlan fault_plan;
  /// Re-replicate lost/corrupt replicas as background work (strictly
  /// below foreground work, ahead of adaptive rewrites). Opt-in: sessions
  /// that inject faults enable it; corrupt replicas are revoked either way.
  bool self_heal = false;
  /// Launch duplicate attempts for straggling tasks (first completion
  /// wins, deterministically): a running task becomes a candidate once it
  /// has run 1.5x its job's average completed-task duration. Opt-in, for
  /// plans with slow nodes.
  bool speculative_execution = false;
  /// Feed each completed query to the adaptive manager as it finishes
  /// (instead of only in the session epilogue) so the planner can react —
  /// e.g. add hot-block replicas — while the storm is still running. The
  /// observe/plan round runs as its own deferred event, after the session
  /// loop has applied every commit requested before it.
  bool online_adaptation = false;

  /// When non-null, the session emits spans (session, jobs, tasks, block
  /// reads, index probes, maintenance, repairs, uploads) into this
  /// tracer on the *simulated* clock. Purely observational: billed costs
  /// and every simulated number are bit-identical with tracing on or
  /// off, and the emitted trace is bit-identical between serial and
  /// parallel execution (see obs/trace.h).
  obs::Tracer* tracer = nullptr;
};

/// \brief Per-queue slot usage over one session (fair-share accounting).
struct QueueUsage {
  std::string queue;
  double weight = 1.0;
  /// Completed foreground task attempts / slot-seconds they occupied.
  uint64_t tasks = 0;
  double slot_seconds = 0.0;
  /// Subset assigned while >= 2 queues had pending work — the window
  /// where fair-share entitlement is measurable (bench_scheduler gates on
  /// contended_slot_seconds shares matching queue weights).
  uint64_t contended_tasks = 0;
  double contended_slot_seconds = 0.0;
  // -- per-queue SLO accounting (options.queue_slo_s) --
  /// Latency target; 0 when the queue declared none.
  double slo_target_s = 0.0;
  uint64_t jobs_completed = 0;
  /// Jobs rejected at admission (Status::Overloaded).
  uint64_t jobs_shed = 0;
  /// Completed jobs whose end-to-end latency exceeded the SLO target.
  uint64_t slo_violations = 0;
  /// Nearest-rank percentiles of completed jobs' submit-to-finish
  /// latency; 0 when no job of the queue completed.
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  // -- preemption billing --
  /// Running attempts of this queue preempted for a starved queue, and
  /// the slot-seconds those attempts had consumed when cancelled.
  uint64_t preemptions = 0;
  double preempted_slot_seconds = 0.0;
};

/// \brief Everything one session produced.
struct SessionResult {
  /// Per-job outcome, in submission order. A job can fail (bad input,
  /// failed dependency, upload error) without failing the session.
  std::vector<Result<JobResult>> jobs;
  /// Session makespan: simulated end of the last job (cleanup included);
  /// failed tenants count up to their failure instant.
  double session_seconds = 0.0;
  std::vector<QueueUsage> queues;
  // -- session-wide background maintenance --
  uint32_t maintenance_scheduled = 0;
  uint32_t maintenance_completed = 0;
  uint32_t maintenance_failed = 0;
  /// Tasks dropped at assignment because their target replica already had
  /// what they would build; neither failed nor returned to the manager.
  uint32_t maintenance_converged = 0;
  /// Background work assigned while foreground work was pending. 0 by
  /// construction: background work is assigned only by a heartbeat that
  /// finds no foreground task pending. Kept because the tests, the bench
  /// gates and perfbench read it.
  uint64_t maintenance_while_foreground_pending = 0;
  // -- self-healing storage (options.self_heal) --
  uint32_t repairs_scheduled = 0;
  uint32_t repairs_completed = 0;
  /// Repairs dropped because they were no longer needed (node revived
  /// with its replica intact, file deleted) or could never run.
  uint32_t repairs_abandoned = 0;
  /// Lost replicas still waiting for repair when the session ended
  /// (requeued in the namenode for a later session).
  uint64_t under_replicated_remaining = 0;
  // -- task retry / speculative execution --
  uint32_t task_retries = 0;
  uint32_t speculative_attempts = 0;
  /// Speculative attempts that finished before their primaries.
  uint32_t speculative_wins = 0;
  // -- overload hardening (preemption / shedding / SLOs) --
  uint32_t preemptions = 0;
  double preempted_slot_seconds = 0.0;
  uint32_t jobs_shed = 0;
  uint64_t slo_violations_total = 0;
  // -- aggressive replication (maintenance kAddReplica / kEvictReplica) --
  uint32_t replicas_added = 0;
  uint32_t replicas_evicted = 0;
  // -- cost-based planning (spec.use_planner / options.plan_cache) --
  /// Query jobs whose plan carried per-block access decisions.
  uint32_t jobs_planned = 0;
  /// Plan-cache traffic for this session's admissions (0 when no cache).
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t plan_cache_invalidations = 0;
  /// kBuildStats maintenance commits (stats sidecar backfills).
  uint32_t stats_backfilled = 0;
};

/// \brief N jobs on one simulated clock and one shared cluster state.
///
/// Usage: construct, Submit jobs (optionally with a submit time and a
/// dependency on an earlier job), Run once. Run resets node resources and
/// revives dead nodes at the session boundary, then drives per-node
/// TaskTracker heartbeats until every job finished and background
/// maintenance drained.
class ClusterSession {
 public:
  explicit ClusterSession(hdfs::MiniDfs* dfs, SessionOptions options = {});

  /// Submits a query job. `submit_time` defers admission on the session
  /// clock; `depends_on` (a previously returned job id) delays admission
  /// until that job completes — its plan then sees the dependency's DFS
  /// effects (e.g. a finished upload). Returns the job id.
  int Submit(JobSpec spec, std::string queue = "default",
             sim::SimTime submit_time = 0.0, int depends_on = -1);

  /// Submits an upload tenant (same queue/deferral semantics).
  int SubmitUpload(UploadJobSpec upload, std::string queue = "default",
                   sim::SimTime submit_time = 0.0, int depends_on = -1);

  size_t job_count() const { return jobs_.size(); }

  /// Runs the whole session to completion. Single use. A fault plan that
  /// can never fire is rejected with InvalidArgument before the session
  /// boundary touches any cluster state. Session-fatal errors (reader
  /// failure, no alive TaskTrackers, scheduler starvation) surface here;
  /// per-job failures land in SessionResult::jobs.
  Result<SessionResult> Run();

  /// One submitted job as the session engine sees it (internal, exposed
  /// only because the engine's implementation lives in the .cc).
  struct Submitted {
    enum class Kind { kQuery, kUpload };
    Kind kind = Kind::kQuery;
    JobSpec spec;
    UploadJobSpec upload;
    std::string queue;
    sim::SimTime submit_time = 0.0;
    int depends_on = -1;
  };

 private:
  hdfs::MiniDfs* dfs_;
  SessionOptions options_;
  std::vector<Submitted> jobs_;
  bool ran_ = false;
};

}  // namespace mapreduce
}  // namespace hail
