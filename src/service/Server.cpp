//===- service/Server.cpp - The analyzer-as-a-service daemon ----------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "analyzer/CliOptions.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace astral {
namespace service {

Server::Server(ServerConfig C)
    : Cfg(std::move(C)),
      Pool(Scheduler::create(Cfg.Jobs)),
      Cache(Cfg.CacheEntries) {}

Server::~Server() {
  if (Started && !Stopping.load())
    requestStop();
  if (Acceptor.joinable())
    wait();
  if (StopPipe[0] != -1)
    ::close(StopPipe[0]);
  if (StopPipe[1] != -1)
    ::close(StopPipe[1]);
}

bool Server::start(std::string &Err) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Cfg.SocketPath.empty() ||
      Cfg.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "astral serve: socket path must be 1.." +
          std::to_string(sizeof(Addr.sun_path) - 1) + " bytes";
    return false;
  }
  std::memcpy(Addr.sun_path, Cfg.SocketPath.c_str(),
              Cfg.SocketPath.size() + 1);

  if (::pipe(StopPipe) != 0) {
    Err = std::string("astral serve: pipe: ") + std::strerror(errno);
    return false;
  }

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Err = std::string("astral serve: socket: ") + std::strerror(errno);
    return false;
  }

  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) != 0) {
    if (errno != EADDRINUSE) {
      Err = std::string("astral serve: bind ") + Cfg.SocketPath + ": " +
            std::strerror(errno);
      ::close(ListenFd);
      ListenFd = -1;
      return false;
    }
    // A socket file exists. Probe it: a live daemon accepts the connect, a
    // stale file left by a dead daemon refuses — then it is safe to unlink
    // and take the address over.
    int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    bool Live = Probe >= 0 &&
                ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                          sizeof(Addr)) == 0;
    if (Probe >= 0)
      ::close(Probe);
    if (Live) {
      Err = "astral serve: a daemon is already listening on " +
            Cfg.SocketPath;
      ::close(ListenFd);
      ListenFd = -1;
      return false;
    }
    ::unlink(Cfg.SocketPath.c_str());
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0) {
      Err = std::string("astral serve: bind ") + Cfg.SocketPath + ": " +
            std::strerror(errno);
      ::close(ListenFd);
      ListenFd = -1;
      return false;
    }
  }

  if (::listen(ListenFd, 64) != 0) {
    Err = std::string("astral serve: listen: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(Cfg.SocketPath.c_str());
    return false;
  }

  Queue = std::make_unique<RequestQueue>(Pool, Cache);
  Acceptor = std::thread([this] { acceptLoop(); });
  Started = true;
  return true;
}

void Server::requestStop() {
  Stopping.store(true);
  if (StopPipe[1] != -1) {
    char B = 's';
    // Async-signal-safe; a full pipe just means a stop is already pending.
    ssize_t Ignored = ::write(StopPipe[1], &B, 1);
    (void)Ignored;
  }
}

int Server::wait() {
  if (Acceptor.joinable())
    Acceptor.join();
  // Graceful drain, in dependency order: first the queue — the in-flight
  // analysis drain finishes (its own deadlines still apply) and every
  // queued-but-unstarted job resolves with a structured "shutting-down"
  // outcome, so connection threads blocked on futures wake up with
  // something to send instead of hanging.
  if (Queue)
    Queue->beginShutdown();
  // Unblock connection threads stuck in recv, then collect them. Only the
  // read side is shut down: a thread still writing a response (a just-served
  // analyze, the shutdown acknowledgement) finishes its send and exits on
  // the Stopping check — connections drain instead of being cut mid-reply.
  {
    std::lock_guard<std::mutex> L(ConnMu);
    for (int Fd : ConnFds)
      ::shutdown(Fd, SHUT_RD);
  }
  for (;;) {
    std::thread T;
    {
      std::lock_guard<std::mutex> L(ConnMu);
      if (ConnThreads.empty())
        break;
      T = std::move(ConnThreads.back());
      ConnThreads.pop_back();
    }
    if (T.joinable())
      T.join();
  }
  Queue.reset(); // Joins the dispatcher; no connection can submit anymore.
  if (ListenFd != -1) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  ::unlink(Cfg.SocketPath.c_str());
  if (Cfg.Verbose)
    std::fprintf(stderr, "astral serve: stopped\n");
  return 0;
}

void Server::acceptLoop() {
  for (;;) {
    pollfd P[2] = {{ListenFd, POLLIN, 0}, {StopPipe[0], POLLIN, 0}};
    if (::poll(P, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Stopping.load() || (P[1].revents & POLLIN))
      break;
    if (!(P[0].revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    std::lock_guard<std::mutex> L(ConnMu);
    if (Stopping.load()) {
      ::close(Fd);
      break;
    }
    ConnFds.push_back(Fd);
    ConnThreads.emplace_back([this, Fd] { serveConnection(Fd); });
  }
}

void Server::serveConnection(int Fd) {
  std::string Buf;
  char Chunk[65536];
  bool Open = true;
  auto SendAll = [&](const std::string &Bytes) -> bool {
    size_t Sent = 0;
    while (Sent < Bytes.size()) {
      ssize_t W = ::send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                         MSG_NOSIGNAL);
      if (W <= 0)
        return false;
      Sent += size_t(W);
    }
    return true;
  };
  while (Open) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      break;
    Buf.append(Chunk, size_t(N));
    size_t Nl;
    while (Open && (Nl = Buf.find('\n')) != std::string::npos) {
      std::string Line = Buf.substr(0, Nl);
      Buf.erase(0, Nl + 1);
      if (Line.empty())
        continue;
      bool StopAfterSend = false;
      std::string Response;
      try {
        Response = handleLine(Line, StopAfterSend);
      } catch (const std::exception &E) {
        // Nothing a single request does may take the daemon down; whatever
        // escaped the handlers becomes a structured internal error.
        Response = encodeError(E.what(), "internal");
      } catch (...) {
        Response = encodeError("unknown exception while handling request",
                               "internal");
      }
      Response += '\n';
      // Chaos sites for the transport itself: "socket-write" simulates the
      // peer (or kernel) failing the send, "torn-frame" a daemon dying
      // mid-response. Both drop only this connection.
      try {
        faultinject::fire("socket-write");
      } catch (const faultinject::InjectedFault &) {
        Open = false;
        break;
      }
      if (faultinject::shouldFire("torn-frame")) {
        SendAll(Response.substr(0, Response.size() / 2));
        Open = false;
        break;
      }
      if (!SendAll(Response)) {
        Open = false;
        break;
      }
      if (StopAfterSend)
        requestStop();
      if (Stopping.load())
        Open = false; // A shutdown was requested; answer no further lines.
    }
    // Framing guard: a line that outgrows the cap without a newline would
    // otherwise buffer unboundedly. Answer once, structurally, and close.
    if (Open && Buf.size() > Cfg.MaxRequestBytes) {
      SendAll(encodeError("request line exceeds " +
                              std::to_string(Cfg.MaxRequestBytes) +
                              " bytes before a newline",
                          "bad-request") +
              "\n");
      Open = false;
    }
  }
  {
    std::lock_guard<std::mutex> L(ConnMu);
    ConnFds.erase(std::find(ConnFds.begin(), ConnFds.end(), Fd));
  }
  ::close(Fd);
}

std::string Server::handleLine(const std::string &Line, bool &StopAfterSend) {
  if (!validUtf8(Line))
    return encodeError("request line is not valid UTF-8");
  std::string Err;
  std::optional<Request> R = decodeRequest(Line, Err);
  if (!R)
    return encodeError(Err);
  switch (R->Operation) {
  case Request::Op::Analyze:
    return handleAnalyze(*R);
  case Request::Op::Status:
    return handleStatus();
  case Request::Op::CacheStats:
    return handleCacheStats();
  case Request::Op::Shutdown: {
    if (Cfg.Verbose)
      std::fprintf(stderr, "astral serve: shutdown requested\n");
    // The stop is signalled by the connection thread only after this
    // response has been fully sent; stopping here would let wait() shut the
    // socket down mid-send and the requester would never see its reply.
    StopAfterSend = true;
    JsonValue Doc = JsonValue::object();
    Doc["ok"] = JsonValue(true);
    Doc["op"] = JsonValue("shutdown");
    Doc["schema_version"] = JsonValue(uint64_t(ReportSchemaVersion));
    return Doc.serialize();
  }
  }
  return encodeError("unreachable");
}

std::string Server::handleAnalyze(const Request &R) {
  // The forwarded flag tokens go through the exact parser the one-shot
  // driver uses; inputs were already reduced to (path, source, headers) by
  // the client, so any path token here is a client bug, not a file to read.
  cli::CliOptions Cli;
  cli::ParseOutcome Parsed = cli::parseArgs(R.Args, Cli);
  if (!Parsed.Ok)
    return encodeError(Parsed.Error);
  if (Parsed.ShowHelp)
    return encodeError("astral serve: --help is not a remote request");
  if (!Cli.InputPaths.empty())
    return encodeError("astral serve: analyze 'args' must contain only "
                       "flags; files travel in 'files'");

  std::string ErrText;
  std::vector<std::string> Paths;
  std::vector<AnalysisInput> Inputs;
  uint64_t DeadlineMs = 0;
  for (const FilePayload &F : R.Files) {
    AnalysisInput In;
    In.FileName = F.Path;
    In.Source = F.Source;
    In.Headers = F.Headers;
    std::vector<std::string> Warnings;
    In.Options = cli::assembleOptions(Cli, F.Path, F.Source, Warnings);
    for (const std::string &W : Warnings)
      ErrText += W + "\n";
    // The request-level deadline is the tightest per-file one (flags apply
    // uniformly today, but the envelope is per-request either way). It is
    // anchored at submit(), i.e. at request arrival: queue wait counts.
    if (In.Options.DeadlineMs &&
        (DeadlineMs == 0 || In.Options.DeadlineMs < DeadlineMs))
      DeadlineMs = In.Options.DeadlineMs;
    Paths.push_back(F.Path);
    Inputs.push_back(std::move(In));
  }

  RequestQueue::Outcome Out;
  try {
    Out = Queue->submit(std::move(Inputs), R.Priority, DeadlineMs).get();
  } catch (const std::exception &E) {
    return encodeError(E.what(), "internal");
  }
  if (!Out.ok()) {
    if (Cfg.Verbose)
      std::fprintf(stderr, "astral serve: request failed (%s): %s\n",
                   Out.ErrorKind.c_str(), Out.ErrorMessage.c_str());
    return encodeError(Out.ErrorMessage, Out.ErrorKind);
  }

  cli::RunOutput RO = cli::renderRun(Cli, Paths, Out.Results);

  JsonValue Doc = JsonValue::object();
  Doc["ok"] = JsonValue(true);
  Doc["op"] = JsonValue("analyze");
  Doc["schema_version"] = JsonValue(uint64_t(ReportSchemaVersion));
  Doc["exit_code"] = JsonValue(int64_t(RO.ExitCode));
  Doc["stdout"] = JsonValue(RO.Out);
  Doc["stderr"] = JsonValue(ErrText + RO.Err);
  JsonValue CacheV = JsonValue::object();
  CacheV["frontend_hits"] = JsonValue(Out.FrontendHits);
  CacheV["frontend_misses"] = JsonValue(Out.FrontendMisses);
  CacheV["packing_hits"] = JsonValue(Out.PackingHits);
  CacheV["packing_misses"] = JsonValue(Out.PackingMisses);
  Doc["cache"] = std::move(CacheV);
  return Doc.serialize();
}

std::string Server::handleStatus() {
  JsonValue Doc = JsonValue::object();
  Doc["ok"] = JsonValue(true);
  Doc["op"] = JsonValue("status");
  Doc["schema_version"] = JsonValue(uint64_t(ReportSchemaVersion));
  Doc["pid"] = JsonValue(int64_t(::getpid()));
  Doc["jobs"] = JsonValue(uint64_t(Pool->concurrency()));
  Doc["requests_served"] = JsonValue(Queue->jobsServed());
  Doc["socket"] = JsonValue(Cfg.SocketPath);
  return Doc.serialize();
}

std::string Server::handleCacheStats() {
  // Flat keys on purpose: the CI smoke greps these counters straight out of
  // the response line.
  ArtifactCache::Stats S = Cache.stats();
  JsonValue Doc = JsonValue::object();
  Doc["ok"] = JsonValue(true);
  Doc["op"] = JsonValue("cache-stats");
  Doc["schema_version"] = JsonValue(uint64_t(ReportSchemaVersion));
  Doc["frontend_hits"] = JsonValue(S.FrontendHits);
  Doc["frontend_misses"] = JsonValue(S.FrontendMisses);
  Doc["frontend_entries"] = JsonValue(uint64_t(Cache.frontendEntries()));
  Doc["packing_hits"] = JsonValue(S.PackingHits);
  Doc["packing_misses"] = JsonValue(S.PackingMisses);
  Doc["packing_entries"] = JsonValue(uint64_t(Cache.packingEntries()));
  Doc["evictions"] = JsonValue(S.Evictions);
  Doc["max_entries"] = JsonValue(uint64_t(Cache.maxEntries()));
  return Doc.serialize();
}

//===----------------------------------------------------------------------===//
// The `serve` subcommand
//===----------------------------------------------------------------------===//

namespace {

Server *SignalTarget = nullptr;

void stopOnSignal(int) {
  if (SignalTarget)
    SignalTarget->requestStop(); // write(2) only — async-signal-safe.
}

} // namespace

int runServeCommand(const std::vector<std::string> &Args) {
  ServerConfig Cfg;
  std::string Err;
  cli::walkFlags(
      Args,
      {{"socket", "a path",
        [&](const std::string &V) {
          Cfg.SocketPath = V;
          return true;
        }},
       cli::unsignedFlag("jobs", 0, Scheduler::MaxThreads,
                         [&](uint64_t N) { Cfg.Jobs = unsigned(N); }),
       cli::unsignedFlag("cache-entries", 1, UINT32_MAX,
                         [&](uint64_t N) { Cfg.CacheEntries = N; }),
       cli::unsignedFlag("max-request-mb", 1, UINT32_MAX,
                         [&](uint64_t N) { Cfg.MaxRequestBytes = N << 20; }),
       {"quiet", "",
        [&](const std::string &) {
          Cfg.Verbose = false;
          return true;
        }}},
      "astral serve",
      [&](const std::string &A) {
        Err = "astral serve: error: unknown argument '" + A + "'";
        return false;
      },
      Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return 1;
  }
  if (Cfg.SocketPath.empty()) {
    std::fprintf(stderr, "astral serve: error: --socket=<path> is required\n");
    return 1;
  }

  Server S(Cfg);
  if (!S.start(Err)) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return 1;
  }
  if (Cfg.Verbose)
    std::fprintf(stderr,
                 "astral serve: listening on %s (jobs=%u, cache-entries=%zu, "
                 "schema %u)\n",
                 Cfg.SocketPath.c_str(),
                 Scheduler::effectiveJobs(Cfg.Jobs), Cfg.CacheEntries,
                 unsigned(ReportSchemaVersion));

  SignalTarget = &S;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = stopOnSignal;
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);

  int Rc = S.wait();
  SignalTarget = nullptr;
  return Rc;
}

} // namespace service
} // namespace astral
