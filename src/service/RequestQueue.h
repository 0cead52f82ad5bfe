//===- service/RequestQueue.h - Shared-pool request scheduling ---*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's analysis scheduler. Connection threads submit jobs (one per
/// analyze request, already reduced to AnalysisInputs); a single dispatcher
/// thread drains the highest-priority pending jobs — FIFO by arrival among
/// equals, so the default priority 0 degenerates to the old drain-everything
/// behavior — flattens them into per-file items, and runs the items over ONE
/// shared Scheduler pool — the same coarse-grained whole-file dispatch
/// AnalysisSession::analyzeBatch uses, extended across concurrent requests.
/// Each item is its own AnalysisSession (per-session work meter), optionally
/// seeded from the ArtifactCache. In a drain of several items each runs as
/// a pool task, and its finer parallel grains (trace partitions, thread
/// rounds) run inline on that task, so one pool serves every granularity
/// without oversubscription. A drain of one file runs on the dispatcher
/// thread itself, so its finer grains fan out over the daemon's pool,
/// whatever --jobs the request gives.
///
/// Cache accounting is per-job: the outcome carries the hit/miss deltas of
/// exactly this request's items, which is what lets a client prove "the
/// resubmission skipped the frontend" without racing other clients.
///
/// Priorities are preemption at drain granularity, not mid-run: an editor's
/// priority-10 single-file request submitted while a priority-0 CI batch is
/// running waits for the in-flight drain, then jumps every still-queued
/// batch. Starvation is the operator's tradeoff to make — the daemon never
/// ages priorities up.
///
/// Resource governance and fault isolation: a request's --deadline-ms is
/// anchored at submit() (queue wait counts against it — the client asked
/// for a bound on its wall-clock wait, not on CPU time); expired jobs are
/// dropped pre-dispatch with a "timeout" outcome, and each in-flight item
/// carries a per-item cancel::Token sharing the request's absolute deadline
/// so sessions unwind cooperatively at their poll points. Every item runs
/// under its own try/catch — an AnalysisCancelled maps to the matching
/// error kind, any other exception (including injected faults) to
/// "internal" — so one poisoned request can never take down the dispatcher
/// or sibling requests. The first failing file (by input order) decides the
/// job's outcome.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SERVICE_REQUESTQUEUE_H
#define ASTRAL_SERVICE_REQUESTQUEUE_H

#include "analyzer/AnalysisSession.h"
#include "analyzer/Scheduler.h"
#include "service/ArtifactCache.h"

#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace astral {
namespace service {

class RequestQueue {
public:
  struct Outcome {
    std::vector<AnalysisResult> Results; ///< In input order.
    uint64_t FrontendHits = 0;
    uint64_t FrontendMisses = 0;
    uint64_t PackingHits = 0;
    uint64_t PackingMisses = 0;
    uint64_t ServeOrder = 0; ///< Position in the daemon's global serve
                             ///< sequence (0-based) — the observable the
                             ///< priority tests pin.
    /// Empty = success. Otherwise the protocol error_kind ("timeout",
    /// "over-budget", "shutting-down", "internal") and its human-readable
    /// message; Results are not meaningful then.
    std::string ErrorKind;
    std::string ErrorMessage;
    bool ok() const { return ErrorKind.empty(); }
  };

  RequestQueue(std::shared_ptr<Scheduler> Pool, ArtifactCache &Cache);
  ~RequestQueue();

  RequestQueue(const RequestQueue &) = delete;
  RequestQueue &operator=(const RequestQueue &) = delete;

  /// Enqueues one request's inputs; the future resolves when every file of
  /// the request finished. Higher \p Priority jobs are dispatched before
  /// lower ones; equal priorities serve in arrival order. A non-zero
  /// \p DeadlineMs anchors the request's absolute deadline here, at
  /// arrival: a job still queued past it is dropped with a "timeout"
  /// outcome, an in-flight one unwinds at the analyzer's poll points.
  /// After beginShutdown() the future resolves immediately with a
  /// "shutting-down" outcome.
  std::future<Outcome> submit(std::vector<AnalysisInput> Inputs,
                              int Priority = 0, uint64_t DeadlineMs = 0);

  uint64_t jobsServed() const;

  /// Graceful drain: stops the dispatcher after the in-flight drain (if
  /// any) finishes, then resolves every still-queued job with a structured
  /// "shutting-down" outcome instead of abandoning its waiter. Idempotent;
  /// the destructor calls it.
  void beginShutdown();

  /// Gates the dispatcher between drains (a paused queue accepts submits
  /// but starts no new drain). Exists so tests can stack requests and
  /// observe the priority order deterministically; the daemon itself never
  /// pauses.
  void pause();
  void resume();

private:
  struct Job {
    std::vector<AnalysisInput> Inputs;
    std::promise<Outcome> Done;
    Outcome Result;
    int Priority = 0;
    uint64_t Seq = 0; ///< Arrival order; the FIFO tiebreak among equals.
    /// Absolute deadline anchored at submit(); nullopt = none.
    std::optional<cancel::Token::Clock::time_point> Deadline;
    /// Per-file failure slots, written by the item tasks (distinct
    /// indices, so no locking) and reduced to the Outcome after the drain.
    std::vector<std::string> ItemErrKind;
    std::vector<std::string> ItemErrMsg;
  };

  void dispatcherMain();
  void runJobs(std::vector<std::unique_ptr<Job>> Jobs);

  std::shared_ptr<Scheduler> Pool;
  ArtifactCache &Cache;

  mutable std::mutex Mu;
  std::condition_variable JobReady;
  std::vector<std::unique_ptr<Job>> Pending; ///< Arrival order (Seq asc).
  bool ShuttingDown = false;
  bool Paused = false;
  uint64_t NextSeq = 0;
  uint64_t Served = 0;

  std::thread Dispatcher;
};

} // namespace service
} // namespace astral

#endif // ASTRAL_SERVICE_REQUESTQUEUE_H
