//===- service/Client.cpp - astral-cli client mode --------------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"

#include "analyzer/AnalysisSession.h"
#include "analyzer/CliOptions.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

namespace astral {
namespace service {

namespace {

/// One connect attempt; -1 + \p Err on failure. Applies the I/O timeouts
/// right away so even the first exchange is bounded.
int openSocket(const std::string &SocketPath, const ConnectOptions &Opts,
               std::string &Err) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.empty() || SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "astral client: socket path must be 1.." +
          std::to_string(sizeof(Addr.sun_path) - 1) + " bytes";
    return -1;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("astral client: socket: ") + std::strerror(errno);
    return -1;
  }
  if (Opts.IoTimeoutMs) {
    timeval Tv;
    Tv.tv_sec = Opts.IoTimeoutMs / 1000;
    Tv.tv_usec = suseconds_t(Opts.IoTimeoutMs % 1000) * 1000;
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
    ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = "astral client: cannot connect to " + SocketPath + ": " +
          std::strerror(errno) + " (is `astral-cli serve` running?)";
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Exponential backoff with jitter: BackoffBaseMs * 2^Attempt, plus up to
/// 50% random extra, so retrying clients spread out instead of stampeding.
void backoffSleep(const ConnectOptions &Opts, unsigned Attempt) {
  uint64_t Base = uint64_t(Opts.BackoffBaseMs) << (Attempt > 10 ? 10 : Attempt);
  static thread_local std::mt19937_64 Rng{std::random_device{}()};
  uint64_t Jitter = Base ? Rng() % (Base / 2 + 1) : 0;
  std::this_thread::sleep_for(std::chrono::milliseconds(Base + Jitter));
}

} // namespace

Client::~Client() {
  if (Fd != -1)
    ::close(Fd);
}

std::unique_ptr<Client> Client::connect(const std::string &SocketPath,
                                        std::string &Err,
                                        const ConnectOptions &Opts) {
  for (unsigned Attempt = 0;; ++Attempt) {
    int Fd = openSocket(SocketPath, Opts, Err);
    if (Fd >= 0)
      return std::unique_ptr<Client>(new Client(Fd, SocketPath, Opts));
    if (Attempt >= Opts.Retries)
      return nullptr;
    backoffSleep(Opts, Attempt);
  }
}

std::optional<JsonValue> Client::roundTrip(const Request &R,
                                           std::string &Err) {
  // Shutdown is the one non-idempotent operation: replaying it against a
  // daemon that already acknowledged (on a frame we lost) would stop a
  // *new* daemon. Everything else is safe to retry on a fresh connection.
  const bool Retryable = R.Operation != Request::Op::Shutdown;
  for (unsigned Attempt = 0;; ++Attempt) {
    std::optional<JsonValue> Doc = tryRoundTrip(R, Err);
    if (Doc)
      return Doc;
    if (!Retryable || Attempt >= Opts.Retries)
      return std::nullopt;
    ++Retries;
    backoffSleep(Opts, Attempt);
    // Fresh stream: the old one may hold half a response; carrying those
    // bytes over would desynchronize the framing forever.
    if (Fd != -1)
      ::close(Fd);
    Carry.clear();
    std::string ConnErr;
    Fd = openSocket(SocketPath, Opts, ConnErr);
    if (Fd == -1)
      Err = ConnErr; // Reported if this was the last attempt.
  }
}

std::optional<JsonValue> Client::tryRoundTrip(const Request &R,
                                              std::string &Err) {
  if (Fd == -1) {
    Err = "astral client: not connected";
    return std::nullopt;
  }
  std::string Line = encodeRequest(R);
  Line += '\n';
  size_t Sent = 0;
  while (Sent < Line.size()) {
    ssize_t W = ::send(Fd, Line.data() + Sent, Line.size() - Sent,
                       MSG_NOSIGNAL);
    if (W <= 0) {
      Err = std::string("astral client: send: ") + std::strerror(errno);
      return std::nullopt;
    }
    Sent += size_t(W);
  }

  char Chunk[65536];
  size_t Nl;
  while ((Nl = Carry.find('\n')) == std::string::npos) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0) {
      Err = std::string("astral client: recv: ") + std::strerror(errno);
      return std::nullopt;
    }
    if (N == 0) {
      Err = "astral client: daemon closed the connection mid-response";
      return std::nullopt;
    }
    Carry.append(Chunk, size_t(N));
  }
  std::string Response = Carry.substr(0, Nl);
  Carry.erase(0, Nl + 1);

  std::string ParseErr;
  std::optional<JsonValue> Doc = JsonValue::parse(Response, ParseErr);
  if (!Doc) {
    Err = "astral client: malformed response: " + ParseErr;
    return std::nullopt;
  }
  return Doc;
}

//===----------------------------------------------------------------------===//
// The `client` subcommand
//===----------------------------------------------------------------------===//

namespace {

/// Checks ok/error and the schema vintage; on failure prints to stderr and
/// returns the process exit code (0 = response is good). Resource-
/// governance refusals — the daemon saying "your deadline expired" or
/// "your budget burst under --on-budget=fail" — exit with the one-shot
/// driver's code 4, so scripts treat both modes alike.
int vetResponse(const JsonValue &Doc) {
  const JsonValue *Ok = Doc.find("ok");
  if (!Ok || !Ok->isBool() || !Ok->asBool()) {
    const JsonValue *E = Doc.find("error");
    const JsonValue *K = Doc.find("error_kind");
    std::string Kind =
        K && K->isString() ? K->asString() : std::string("internal");
    std::fprintf(stderr, "astral client: daemon error [%s]: %s\n",
                 Kind.c_str(),
                 E && E->isString() ? E->asString().c_str()
                                    : "(malformed error response)");
    return Kind == "timeout" || Kind == "over-budget" || Kind == "cancelled"
               ? 4
               : 1;
  }
  const JsonValue *Ver = Doc.find("schema_version");
  if (!Ver || !Ver->isNumber() ||
      uint64_t(Ver->asNumber()) != ReportSchemaVersion) {
    std::fprintf(stderr,
                 "astral client: daemon speaks report schema %s, this "
                 "client expects %u — restart the daemon from this build\n",
                 Ver && Ver->isNumber()
                     ? std::to_string(uint64_t(Ver->asNumber())).c_str()
                     : "(none)",
                 unsigned(ReportSchemaVersion));
    return 1;
  }
  return 0;
}

int runAnalyze(Client &C, const std::vector<std::string> &Args) {
  // --priority is a client/daemon scheduling hint that the analyzer's parser
  // would reject: it travels in the request envelope, and every other token
  // goes on to that parser and into the forwarded tokens.
  int Priority = 0;
  std::vector<std::string> DriverArgs;
  std::string Err;
  cli::walkFlags(
      Args,
      {{"priority", "an integer",
        [&](const std::string &V) {
          std::optional<int> N = cli::parseInt(V);
          if (N)
            Priority = *N;
          return N.has_value();
        }}},
      "astral client",
      [&](const std::string &A) {
        DriverArgs.push_back(A);
        return true;
      },
      Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return 1;
  }

  cli::CliOptions Cli;
  cli::ParseOutcome Parsed = cli::parseArgs(DriverArgs, Cli);
  if (!Parsed.Ok) {
    std::fprintf(stderr, "%s\n", Parsed.Error.c_str());
    return 1;
  }
  if (Parsed.ShowHelp) {
    cli::printUsage(stdout);
    return 0;
  }
  if (Cli.InputPaths.empty()) {
    std::fprintf(stderr, "astral client: error: no input files\n");
    return 1;
  }

  std::vector<std::string> Notes;
  std::string LoadErr;
  std::optional<std::vector<cli::LoadedFile>> Files =
      cli::loadInputFiles(Cli, Notes, LoadErr);
  for (const std::string &N : Notes)
    std::fprintf(stderr, "%s\n", N.c_str());
  if (!Files) {
    std::fprintf(stderr, "%s\n", LoadErr.c_str());
    return 1;
  }

  Request R;
  R.Operation = Request::Op::Analyze;
  R.Args = Cli.FlagArgs;
  R.Priority = Priority;
  for (const cli::LoadedFile &F : *Files)
    R.Files.push_back(FilePayload{F.Path, F.Source, F.Headers});

  std::optional<JsonValue> Doc = C.roundTrip(R, Err);
  if (!Doc) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return 1;
  }
  if (int Rc = vetResponse(*Doc))
    return Rc;

  const JsonValue *Out = Doc->find("stdout");
  const JsonValue *ErrText = Doc->find("stderr");
  const JsonValue *Code = Doc->find("exit_code");
  if (!Out || !Out->isString() || !ErrText || !ErrText->isString() || !Code ||
      !Code->isNumber()) {
    std::fprintf(stderr,
                 "astral client: malformed analyze response (missing "
                 "stdout/stderr/exit_code)\n");
    return 1;
  }
  // Verbatim pass-through: these bytes are what the one-shot driver would
  // have emitted, and the golden suite diffs them.
  std::fwrite(Out->asString().data(), 1, Out->asString().size(), stdout);
  std::fwrite(ErrText->asString().data(), 1, ErrText->asString().size(),
              stderr);
  return int(Code->asNumber());
}

int runSimpleOp(Client &C, Request::Op Op) {
  Request R;
  R.Operation = Op;
  std::string Err;
  std::optional<JsonValue> Doc = C.roundTrip(R, Err);
  if (!Doc) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return 1;
  }
  if (int Rc = vetResponse(*Doc))
    return Rc;
  // The response object IS the report for these ops; print it as one line
  // so scripts can parse or grep it directly.
  std::string S = Doc->serialize();
  std::fprintf(stdout, "%s\n", S.c_str());
  return 0;
}

} // namespace

int runClientCommand(const std::vector<std::string> &Args) {
  std::string SocketPath;
  ConnectOptions Opts;
  std::string Err;
  // The client's own flags come first; the first other token is the
  // operation.
  size_t I = cli::walkFlags(
      Args,
      {{"socket", "a path",
        [&](const std::string &V) {
          SocketPath = V;
          return true;
        }},
       cli::unsignedFlag("connect-retries", 0, UINT32_MAX,
                         [&](uint64_t N) { Opts.Retries = unsigned(N); }),
       cli::unsignedFlag("io-timeout-ms", 0, UINT32_MAX,
                         [&](uint64_t N) { Opts.IoTimeoutMs = unsigned(N); })},
      "astral client", [](const std::string &) { return false; }, Err);
  if (!Err.empty()) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return 1;
  }
  if (SocketPath.empty()) {
    std::fprintf(stderr,
                 "astral client: error: --socket=<path> is required "
                 "(before the operation)\n");
    return 1;
  }
  if (I >= Args.size()) {
    std::fprintf(stderr,
                 "astral client: error: expected an operation: analyze, "
                 "status, cache-stats, or shutdown\n");
    return 1;
  }
  const std::string &Op = Args[I];
  std::vector<std::string> Rest(Args.begin() + ptrdiff_t(I) + 1, Args.end());

  std::unique_ptr<Client> C = Client::connect(SocketPath, Err, Opts);
  if (!C) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return 1;
  }

  if (Op == "analyze")
    return runAnalyze(*C, Rest);
  if (!Rest.empty()) {
    std::fprintf(stderr, "astral client: error: '%s' takes no arguments\n",
                 Op.c_str());
    return 1;
  }
  if (Op == "status")
    return runSimpleOp(*C, Request::Op::Status);
  if (Op == "cache-stats")
    return runSimpleOp(*C, Request::Op::CacheStats);
  if (Op == "shutdown")
    return runSimpleOp(*C, Request::Op::Shutdown);
  std::fprintf(stderr,
               "astral client: error: unknown operation '%s' (expected "
               "analyze, status, cache-stats, or shutdown)\n",
               Op.c_str());
  return 1;
}

} // namespace service
} // namespace astral
