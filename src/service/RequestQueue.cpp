//===- service/RequestQueue.cpp - Shared-pool request scheduling ------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "service/RequestQueue.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace astral {
namespace service {

RequestQueue::RequestQueue(std::shared_ptr<Scheduler> Pool,
                           ArtifactCache &Cache)
    : Pool(std::move(Pool)), Cache(Cache),
      Dispatcher([this] { dispatcherMain(); }) {}

RequestQueue::~RequestQueue() { beginShutdown(); }

static RequestQueue::Outcome shuttingDownOutcome() {
  RequestQueue::Outcome O;
  O.ErrorKind = "shutting-down";
  O.ErrorMessage = "astral serve: daemon is shutting down; the request "
                   "was never scheduled";
  return O;
}

void RequestQueue::beginShutdown() {
  {
    std::lock_guard<std::mutex> L(Mu);
    if (ShuttingDown)
      return;
    ShuttingDown = true;
  }
  JobReady.notify_all();
  // The dispatcher finishes its in-flight drain (those jobs resolve
  // normally, or with their own timeout/error outcomes), then exits.
  if (Dispatcher.joinable())
    Dispatcher.join();
  // Whatever is still queued never started; resolve it with a structured
  // outcome rather than leaving waiters blocked or throwing into them.
  std::vector<std::unique_ptr<Job>> Left;
  {
    std::lock_guard<std::mutex> L(Mu);
    Left = std::move(Pending);
    Pending.clear();
  }
  for (std::unique_ptr<Job> &J : Left)
    J->Done.set_value(shuttingDownOutcome());
}

std::future<RequestQueue::Outcome>
RequestQueue::submit(std::vector<AnalysisInput> Inputs, int Priority,
                     uint64_t DeadlineMs) {
  auto J = std::make_unique<Job>();
  J->Inputs = std::move(Inputs);
  J->Priority = Priority;
  if (DeadlineMs)
    J->Deadline = cancel::Token::Clock::now() +
                  std::chrono::milliseconds(DeadlineMs);
  std::future<Outcome> F = J->Done.get_future();
  bool Rejected = false;
  {
    std::lock_guard<std::mutex> L(Mu);
    if (ShuttingDown) {
      Rejected = true;
    } else {
      J->Seq = NextSeq++;
      Pending.push_back(std::move(J));
    }
  }
  if (Rejected) {
    J->Done.set_value(shuttingDownOutcome());
    return F;
  }
  JobReady.notify_one();
  return F;
}

void RequestQueue::pause() {
  std::lock_guard<std::mutex> L(Mu);
  Paused = true;
}

void RequestQueue::resume() {
  {
    std::lock_guard<std::mutex> L(Mu);
    Paused = false;
  }
  JobReady.notify_all();
}

uint64_t RequestQueue::jobsServed() const {
  std::lock_guard<std::mutex> L(Mu);
  return Served;
}

void RequestQueue::dispatcherMain() {
  for (;;) {
    std::vector<std::unique_ptr<Job>> Batch;
    {
      std::unique_lock<std::mutex> L(Mu);
      JobReady.wait(L, [&] {
        return ShuttingDown || (!Paused && !Pending.empty());
      });
      if (ShuttingDown)
        return;
      // One drain = every pending job of the single highest priority, in
      // arrival order (Pending is Seq-ascending by construction). Lower
      // priorities stay queued; a high-priority job that arrives during
      // the drain wins the next round.
      int Top = Pending.front()->Priority;
      for (const std::unique_ptr<Job> &J : Pending)
        Top = std::max(Top, J->Priority);
      std::vector<std::unique_ptr<Job>> Rest;
      for (std::unique_ptr<Job> &J : Pending)
        (J->Priority == Top ? Batch : Rest).push_back(std::move(J));
      Pending = std::move(Rest);
    }
    runJobs(std::move(Batch));
  }
}

void RequestQueue::runJobs(std::vector<std::unique_ptr<Job>> Jobs) {
  // Pre-dispatch deadline policing: a job whose deadline passed while it
  // queued gets a "timeout" outcome without touching the pool — the
  // cheapest possible failure, and the behavior the deadline promises (a
  // bound on the client's wall-clock wait, queue time included).
  {
    auto Now = cancel::Token::Clock::now();
    std::vector<std::unique_ptr<Job>> Live;
    uint64_t Dropped = 0;
    for (std::unique_ptr<Job> &J : Jobs) {
      if (J->Deadline && Now >= *J->Deadline) {
        Outcome O;
        O.ErrorKind = "timeout";
        O.ErrorMessage = "astral serve: request deadline expired while "
                         "queued; the analysis never started";
        J->Done.set_value(std::move(O));
        ++Dropped;
      } else {
        Live.push_back(std::move(J));
      }
    }
    if (Dropped) {
      std::lock_guard<std::mutex> L(Mu);
      Served += Dropped;
    }
    Jobs = std::move(Live);
    if (Jobs.empty())
      return;
  }

  // Flatten every drained job into per-file items so concurrent requests
  // share the pool fairly (a one-file request is not stuck behind a
  // seven-file one — both fan out together).
  struct Item {
    Job *Owner;
    size_t FileIndex;
  };
  std::vector<Item> Items;
  for (std::unique_ptr<Job> &J : Jobs) {
    J->Result.Results.resize(J->Inputs.size());
    J->ItemErrKind.resize(J->Inputs.size());
    J->ItemErrMsg.resize(J->Inputs.size());
    for (size_t F = 0; F < J->Inputs.size(); ++F)
      Items.push_back(Item{J.get(), F});
  }

  struct JobCounters {
    std::atomic<uint64_t> FrontendHits{0}, FrontendMisses{0};
    std::atomic<uint64_t> PackingHits{0}, PackingMisses{0};
  };
  std::vector<JobCounters> Counters(Jobs.size());
  std::unordered_map<Job *, size_t> JobIndex;
  for (size_t J = 0; J < Jobs.size(); ++J)
    JobIndex[Jobs[J].get()] = J;

  auto RunItem = [&](size_t I) {
    Job &J = *Items[I].Owner;
    JobCounters &C = Counters[JobIndex[&J]];
    const size_t FI = Items[I].FileIndex;
    const AnalysisInput &In = J.Inputs[FI];

    const std::string FrontKey = AnalysisSession::frontendCacheKey(In);
    const std::string PackKey = AnalysisSession::packingCacheKey(In);

    AnalysisSession S(In);
    S.setScheduler(Pool);
    // Per-item token: the request's absolute deadline is shared (every
    // file of the request expires together), the byte budget is armed by
    // the session against its own meter. One token per item because
    // concurrent items would otherwise race re-arming the budget meter.
    auto Tok = std::make_shared<cancel::Token>();
    if (J.Deadline)
      Tok->setDeadline(*J.Deadline);
    S.setCancelToken(Tok);

    std::shared_ptr<const AnalysisSession::FrontendPhase> FE =
        Cache.lookupFrontend(FrontKey);
    if (FE)
      C.FrontendHits.fetch_add(1, std::memory_order_relaxed);
    else
      C.FrontendMisses.fetch_add(1, std::memory_order_relaxed);

    // Packing artifacts only exist for analyzable inputs; a failed frontend
    // never reaches the packing phase, so it neither counts nor stores.
    std::optional<ArtifactCache::PackingArtifact> PA;
    if (FE && FE->Ok) {
      PA = Cache.lookupPacking(PackKey);
      if (PA)
        C.PackingHits.fetch_add(1, std::memory_order_relaxed);
      else
        C.PackingMisses.fetch_add(1, std::memory_order_relaxed);
    }
    // A packing hit brings its own frontend: the layout points at that
    // frontend's types, and FE may be an equal build of the same content
    // that replaced it in the cache.
    if (PA) {
      S.adoptFrontend(PA->Frontend);
      S.adoptPacking(PA->Layout, PA->Packs);
    } else if (FE) {
      S.adoptFrontend(FE);
    }

    J.Result.Results[FI] = S.report();

    if (!FE)
      Cache.storeFrontend(FrontKey, S.shareFrontend());
    if (!PA && S.runFrontend().Ok)
      Cache.storePacking(PackKey,
                         ArtifactCache::PackingArtifact{S.shareFrontend(),
                                                        S.shareLayout(),
                                                        S.sharePacking()});
  };

  // Request isolation: every item runs under its own try/catch, so one
  // over-deadline, over-budget or outright faulting file poisons only its
  // own job's outcome — sibling requests in the drain and the dispatcher
  // itself are untouched. The slots are per-(job, file), written from at
  // most one task each; no locking needed.
  auto RunItemIsolated = [&](size_t I) {
    Job &J = *Items[I].Owner;
    const size_t FI = Items[I].FileIndex;
    try {
      RunItem(I);
    } catch (const cancel::AnalysisCancelled &C) {
      J.ItemErrKind[FI] = cancel::reasonName(C.reason());
      J.ItemErrMsg[FI] = C.what();
    } catch (const std::exception &E) {
      J.ItemErrKind[FI] = "internal";
      J.ItemErrMsg[FI] = E.what();
    } catch (...) {
      J.ItemErrKind[FI] = "internal";
      J.ItemErrMsg[FI] = "unknown exception during analysis";
    }
  };

  // The isolated wrapper never throws, so parallelFor cannot rethrow; the
  // belt-and-braces catch below only guards parallelFor's own machinery.
  try {
    Pool->parallelFor(Items.size(), RunItemIsolated);
  } catch (...) {
    std::exception_ptr E = std::current_exception();
    {
      std::lock_guard<std::mutex> L(Mu);
      Served += Jobs.size();
    }
    for (std::unique_ptr<Job> &J : Jobs)
      J->Done.set_exception(E);
    return;
  }

  // Count before resolving: a client that receives its response and
  // immediately asks for `status` must see its own request in the total.
  uint64_t Base;
  {
    std::lock_guard<std::mutex> L(Mu);
    Base = Served;
    Served += Jobs.size();
  }
  for (size_t J = 0; J < Jobs.size(); ++J) {
    Jobs[J]->Result.ServeOrder = Base + J;
    Jobs[J]->Result.FrontendHits = Counters[J].FrontendHits.load();
    Jobs[J]->Result.FrontendMisses = Counters[J].FrontendMisses.load();
    Jobs[J]->Result.PackingHits = Counters[J].PackingHits.load();
    Jobs[J]->Result.PackingMisses = Counters[J].PackingMisses.load();
    // The first failing file (input order) decides the job's error; a job
    // with no failing file resolves as a normal result set.
    for (size_t F = 0; F < Jobs[J]->ItemErrKind.size(); ++F) {
      if (!Jobs[J]->ItemErrKind[F].empty()) {
        Jobs[J]->Result.ErrorKind = Jobs[J]->ItemErrKind[F];
        Jobs[J]->Result.ErrorMessage = Jobs[J]->Inputs[F].FileName + ": " +
                                       Jobs[J]->ItemErrMsg[F];
        break;
      }
    }
    Jobs[J]->Done.set_value(std::move(Jobs[J]->Result));
  }
}

} // namespace service
} // namespace astral
