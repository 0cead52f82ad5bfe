//===- tests/test_service.cpp - Service-mode subsystem tests --------------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003). Covers the `astral serve` stack
// bottom-up: the SHA-256 content hasher (FIPS 180-4 vectors), the protocol
// JSON value, request encode/decode, the LRU artifact cache, and an
// in-process daemon driven over a real Unix-domain socket — analyze twice,
// prove the resubmission hit the cache, and check the response bytes equal
// the one-shot driver's output (the byte-identity contract that lets the
// golden suite double as protocol conformance).
//
//===----------------------------------------------------------------------===//

#include "analyzer/CliOptions.h"
#include "codegen/FamilyGenerator.h"
#include "service/ArtifactCache.h"
#include "service/Client.h"
#include "service/Json.h"
#include "service/Protocol.h"
#include "service/RequestQueue.h"
#include "service/Server.h"
#include "support/FaultInjection.h"
#include "support/Sha256.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <regex>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace astral;
using namespace astral::service;

namespace {

const char *LimiterSrc =
    "volatile float in;\nfloat y;\n"
    "int main(void) {\n"
    "  while (1) {\n"
    "    float u = in;\n"
    "    if (u - y > 8.0f) { y = y + 8.0f; }\n"
    "    else { if (y - u > 8.0f) { y = y - 8.0f; } else { y = u; } }\n"
    "    __astral_wait();\n"
    "  }\n"
    "  return 0;\n"
    "}";

std::string uniqueSocketPath(const char *Tag) {
  return "/tmp/astral-test-" + std::string(Tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

/// The determinism suite's normalization: wall-clock is the one report
/// field outside the byte-identity guarantee.
std::string normalizeReport(std::string S) {
  static const std::regex Seconds(
      "\"analysis_seconds\": [0-9.eE+-]+");
  return std::regex_replace(S, Seconds,
                            "\"analysis_seconds\": \"<time>\"");
}

} // namespace

//===----------------------------------------------------------------------===//
// SHA-256
//===----------------------------------------------------------------------===//

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(
      sha256::hexDigest(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      sha256::hexDigest("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      sha256::hexDigest(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // One block exactly (64 bytes) exercises the padding block split.
  EXPECT_EQ(
      sha256::hexDigest(std::string(64, 'a')),
      "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
  EXPECT_EQ(
      sha256::hexDigest(std::string(1000000, 'a')),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  sha256::Hasher H;
  H.update("abc");
  H.update(std::string());
  H.update("dbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(H.hexDigest(),
            sha256::hexDigest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
}

//===----------------------------------------------------------------------===//
// JSON value
//===----------------------------------------------------------------------===//

TEST(ServiceJson, SerializeIsCompactSortedAndTyped) {
  JsonValue Doc = JsonValue::object();
  Doc["zeta"] = JsonValue(int64_t(3));
  Doc["alpha"] = JsonValue("a\"b\\c\nd");
  Doc["flag"] = JsonValue(true);
  Doc["ratio"] = JsonValue(0.5);
  JsonValue Arr = JsonValue::array();
  Arr.push(JsonValue());
  Arr.push(JsonValue(uint64_t(7)));
  Doc["list"] = std::move(Arr);
  EXPECT_EQ(Doc.serialize(),
            "{\"alpha\":\"a\\\"b\\\\c\\nd\",\"flag\":true,"
            "\"list\":[null,7],\"ratio\":0.5,\"zeta\":3}");
}

TEST(ServiceJson, ParseRoundTrips) {
  std::string Err;
  std::optional<JsonValue> Doc = JsonValue::parse(
      "{\"s\":\"\\u0041\\t\",\"n\":-2.5e2,\"a\":[1,2],\"o\":{}}", Err);
  ASSERT_TRUE(Doc) << Err;
  EXPECT_EQ(Doc->find("s")->asString(), "A\t");
  EXPECT_EQ(Doc->find("n")->asNumber(), -250.0);
  ASSERT_EQ(Doc->find("a")->items().size(), 2u);
  // Serialize-then-parse is a fixed point.
  std::string S = Doc->serialize();
  std::optional<JsonValue> Again = JsonValue::parse(S, Err);
  ASSERT_TRUE(Again) << Err;
  EXPECT_EQ(Again->serialize(), S);
}

TEST(ServiceJson, RejectsMalformedDocuments) {
  std::string Err;
  EXPECT_FALSE(JsonValue::parse("{\"a\":1} trailing", Err));
  EXPECT_FALSE(JsonValue::parse("{\"a\":}", Err));
  EXPECT_FALSE(JsonValue::parse("\"\\ud800\"", Err)) << "lone surrogate";
  EXPECT_FALSE(JsonValue::parse("", Err));
}

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(ServiceProtocol, AnalyzeRequestRoundTrips) {
  Request R;
  R.Operation = Request::Op::Analyze;
  R.Args = {"--json", "--jobs=2"};
  FilePayload F;
  F.Path = "prog.c";
  F.Source = "int main(void) { return 0; }";
  F.Headers["defs.h"] = "#define N 4\n";
  R.Files.push_back(F);

  std::string Err;
  std::optional<Request> Back = decodeRequest(encodeRequest(R), Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->Operation, Request::Op::Analyze);
  EXPECT_EQ(Back->Args, R.Args);
  ASSERT_EQ(Back->Files.size(), 1u);
  EXPECT_EQ(Back->Files[0].Path, "prog.c");
  EXPECT_EQ(Back->Files[0].Source, F.Source);
  EXPECT_EQ(Back->Files[0].Headers, F.Headers);
}

TEST(ServiceProtocol, PriorityRoundTripsAndDefaultsToZero) {
  Request R;
  R.Operation = Request::Op::Analyze;
  R.Priority = 10;
  FilePayload F;
  F.Path = "p.c";
  F.Source = "int main(void) { return 0; }";
  R.Files.push_back(F);

  std::string Err;
  std::string Line = encodeRequest(R);
  EXPECT_NE(Line.find("\"priority\":10"), std::string::npos) << Line;
  std::optional<Request> Back = decodeRequest(Line, Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->Priority, 10);

  // Omitted on the wire when 0, and 0 when omitted — old clients and new
  // daemons (and vice versa) interoperate.
  R.Priority = 0;
  Line = encodeRequest(R);
  EXPECT_EQ(Line.find("priority"), std::string::npos) << Line;
  Back = decodeRequest(Line, Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->Priority, 0);

  // Negative priorities (background work) are legal.
  R.Priority = -3;
  Back = decodeRequest(encodeRequest(R), Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->Priority, -3);
}

TEST(ServiceProtocol, RejectsBadRequests) {
  std::string Err;
  EXPECT_FALSE(decodeRequest("not json", Err));
  EXPECT_FALSE(decodeRequest("{\"op\":\"explode\"}", Err));
  EXPECT_FALSE(decodeRequest("{\"op\":\"analyze\"}", Err))
      << "analyze without files must be refused";
  EXPECT_FALSE(decodeRequest("{\"args\":[]}", Err)) << "missing op";
  EXPECT_FALSE(decodeRequest("{\"op\":\"status\",\"priority\":1.5}", Err))
      << "fractional priority must be refused";
  EXPECT_FALSE(decodeRequest("{\"op\":\"status\",\"priority\":\"high\"}", Err))
      << "non-numeric priority must be refused";
  // The simple ops decode without payload.
  for (const char *Op : {"status", "cache-stats", "shutdown"}) {
    std::optional<Request> R =
        decodeRequest(std::string("{\"op\":\"") + Op + "\"}", Err);
    ASSERT_TRUE(R) << Op << ": " << Err;
    EXPECT_STREQ(opName(R->Operation), Op);
  }
}

//===----------------------------------------------------------------------===//
// ArtifactCache
//===----------------------------------------------------------------------===//

TEST(ArtifactCache, CountsHitsMissesAndSharesArtifacts) {
  ArtifactCache Cache(4);
  EXPECT_EQ(Cache.lookupFrontend("k1"), nullptr);

  auto F = std::make_shared<const AnalysisSession::FrontendPhase>();
  Cache.storeFrontend("k1", F);
  std::shared_ptr<const AnalysisSession::FrontendPhase> Hit =
      Cache.lookupFrontend("k1");
  EXPECT_EQ(Hit.get(), F.get()) << "a hit shares, never copies";

  ArtifactCache::Stats S = Cache.stats();
  EXPECT_EQ(S.FrontendMisses, 1u);
  EXPECT_EQ(S.FrontendHits, 1u);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(Cache.frontendEntries(), 1u);
}

TEST(ArtifactCache, EvictsLeastRecentlyUsed) {
  ArtifactCache Cache(2);
  auto Mk = [] {
    return std::make_shared<const AnalysisSession::FrontendPhase>();
  };
  Cache.storeFrontend("a", Mk());
  Cache.storeFrontend("b", Mk());
  ASSERT_NE(Cache.lookupFrontend("a"), nullptr); // "a" is now most recent.
  Cache.storeFrontend("c", Mk());                // Evicts "b".
  EXPECT_EQ(Cache.lookupFrontend("b"), nullptr);
  EXPECT_NE(Cache.lookupFrontend("a"), nullptr);
  EXPECT_NE(Cache.lookupFrontend("c"), nullptr);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_EQ(Cache.frontendEntries(), 2u);

  // Re-storing an existing key refreshes in place — no eviction.
  Cache.storeFrontend("a", Mk());
  EXPECT_EQ(Cache.stats().Evictions, 1u);
}

//===----------------------------------------------------------------------===//
// RequestQueue priority scheduling
//===----------------------------------------------------------------------===//

namespace {

std::vector<AnalysisInput> trivialInput(const char *Name) {
  AnalysisInput In;
  In.FileName = Name;
  In.Source = "int main(void) { return 0; }";
  return {In};
}

} // namespace

TEST(RequestQueue, HigherPriorityPreemptsQueuedJobs) {
  ArtifactCache Cache(8);
  RequestQueue Q(Scheduler::create(2), Cache);

  // Stack the queue while paused so the dispatcher sees all four jobs at
  // once — the editor/CI scenario without the race: a CI batch, an editor
  // request, more CI, and a background sweep arrive in that order.
  Q.pause();
  std::future<RequestQueue::Outcome> CiA = Q.submit(trivialInput("ci_a.c"), 0);
  std::future<RequestQueue::Outcome> Editor =
      Q.submit(trivialInput("editor.c"), 10);
  std::future<RequestQueue::Outcome> CiB = Q.submit(trivialInput("ci_b.c"), 0);
  std::future<RequestQueue::Outcome> Bg =
      Q.submit(trivialInput("background.c"), -5);
  Q.resume();

  // Serve order: the priority-10 editor request first; then the two
  // priority-0 CI jobs in arrival order (one drain, FIFO by submission);
  // the negative-priority sweep last.
  EXPECT_EQ(Editor.get().ServeOrder, 0u);
  EXPECT_EQ(CiA.get().ServeOrder, 1u);
  EXPECT_EQ(CiB.get().ServeOrder, 2u);
  EXPECT_EQ(Bg.get().ServeOrder, 3u);
  EXPECT_EQ(Q.jobsServed(), 4u);
}

TEST(RequestQueue, EqualPrioritiesServeInArrivalOrder) {
  ArtifactCache Cache(8);
  RequestQueue Q(Scheduler::create(2), Cache);
  Q.pause();
  std::vector<std::future<RequestQueue::Outcome>> F;
  for (int I = 0; I < 3; ++I)
    F.push_back(Q.submit(trivialInput("same.c"), 7));
  Q.resume();
  for (size_t I = 0; I < F.size(); ++I)
    EXPECT_EQ(F[I].get().ServeOrder, I);
}

TEST(RequestQueue, PackingHitBringsTheFrontendItsLayoutPointsInto) {
  AnalysisInput In;
  In.FileName = "limiter.c";
  In.Source = LimiterSrc;
  const std::string FrontKey = AnalysisSession::frontendCacheKey(In);
  const std::string PackKey = AnalysisSession::packingCacheKey(In);

  // Session A fills both entries, then an independent build B of the same
  // content replaces the frontend entry, as two same-content items of one
  // drain do. Neither session outlives this block, so only the cache keeps
  // A's frontend, whose types A's layout points at, alive.
  ArtifactCache Cache(8);
  {
    AnalysisSession A(In);
    Cache.storeFrontend(FrontKey, A.shareFrontend());
    Cache.storePacking(PackKey, ArtifactCache::PackingArtifact{
                                    A.shareFrontend(), A.shareLayout(),
                                    A.sharePacking()});
    AnalysisSession B(In);
    Cache.storeFrontend(FrontKey, B.shareFrontend());
  }

  RequestQueue Q(Scheduler::create(2), Cache);
  RequestQueue::Outcome Out = Q.submit({In}).get();
  ASSERT_TRUE(Out.ok()) << Out.ErrorMessage;
  EXPECT_EQ(Out.FrontendHits, 1u);
  EXPECT_EQ(Out.PackingHits, 1u);

  AnalysisSession Cold(In);
  cli::CliOptions Cli;
  EXPECT_EQ(
      normalizeReport(cli::renderJsonReport(Cli, In.FileName, Out.Results[0])),
      normalizeReport(cli::renderJsonReport(Cli, In.FileName, Cold.report())));
}

//===----------------------------------------------------------------------===//
// Daemon end-to-end (in-process, real socket)
//===----------------------------------------------------------------------===//

namespace {

/// Starts a daemon on a fresh socket and runs its wait() on a thread, so
/// the test can drive it through a Client like an external process would.
class DaemonFixture {
public:
  explicit DaemonFixture(const std::string &Socket,
                         std::function<void(ServerConfig &)> Tweak = nullptr)
      : Srv(makeConfig(Socket, std::move(Tweak))) {
    std::string Err;
    Ok = Srv.start(Err);
    Error = Err;
    if (Ok)
      Waiter = std::thread([this] { ExitCode = Srv.wait(); });
  }
  ~DaemonFixture() {
    if (Ok) {
      Srv.requestStop();
      Waiter.join();
    }
  }

  static ServerConfig makeConfig(const std::string &Socket,
                                 std::function<void(ServerConfig &)> Tweak =
                                     nullptr) {
    ServerConfig C;
    C.SocketPath = Socket;
    C.Jobs = 2;
    C.CacheEntries = 8;
    C.Verbose = false;
    if (Tweak)
      Tweak(C);
    return C;
  }

  Server Srv;
  std::thread Waiter;
  bool Ok = false;
  std::string Error;
  int ExitCode = -1;
};

Request analyzeRequest() {
  Request R;
  R.Operation = Request::Op::Analyze;
  R.Args = {"--json"};
  FilePayload F;
  F.Path = "limiter.c";
  F.Source = std::string("// @astral volatile in -100 100\n"
                         "// @astral clock-max 1e6\n") +
             LimiterSrc;
  R.Files.push_back(F);
  return R;
}

uint64_t cacheField(const JsonValue &Doc, const char *Key) {
  const JsonValue *C = Doc.find("cache");
  if (!C || !C->isObject())
    return ~uint64_t(0);
  const JsonValue *V = C->find(Key);
  return V && V->isNumber() ? uint64_t(V->asNumber()) : ~uint64_t(0);
}

} // namespace

TEST(ServeDaemon, AnalyzeIsByteIdenticalAndResubmissionHitsTheCache) {
  DaemonFixture D(uniqueSocketPath("e2e"));
  ASSERT_TRUE(D.Ok) << D.Error;

  std::string Err;
  std::unique_ptr<Client> C = Client::connect(D.Srv.socketPath(), Err);
  ASSERT_TRUE(C) << Err;

  // Cold: the daemon analyzes from scratch.
  std::optional<JsonValue> Cold = C->roundTrip(analyzeRequest(), Err);
  ASSERT_TRUE(Cold) << Err;
  ASSERT_TRUE(Cold->find("ok")->asBool());
  EXPECT_EQ(uint64_t(Cold->find("schema_version")->asNumber()),
            uint64_t(ReportSchemaVersion));
  EXPECT_EQ(int(Cold->find("exit_code")->asNumber()), 0);
  EXPECT_EQ(cacheField(*Cold, "frontend_hits"), 0u);
  EXPECT_EQ(cacheField(*Cold, "frontend_misses"), 1u);

  // Warm: same content — the frontend and packing come from the cache and
  // the report bytes must not change.
  std::optional<JsonValue> Warm = C->roundTrip(analyzeRequest(), Err);
  ASSERT_TRUE(Warm) << Err;
  ASSERT_TRUE(Warm->find("ok")->asBool());
  EXPECT_EQ(cacheField(*Warm, "frontend_hits"), 1u);
  EXPECT_EQ(cacheField(*Warm, "frontend_misses"), 0u);
  EXPECT_EQ(cacheField(*Warm, "packing_hits"), 1u);
  EXPECT_EQ(normalizeReport(Warm->find("stdout")->asString()),
            normalizeReport(Cold->find("stdout")->asString()));

  // Both must equal the one-shot driver's rendering of the same input —
  // computed here through the exact shared layer the CLI main uses.
  {
    cli::CliOptions Cli;
    cli::ParseOutcome P = cli::parseArgs({"--json"}, Cli);
    ASSERT_TRUE(P.Ok) << P.Error;
    const Request R = analyzeRequest();
    std::vector<std::string> Warnings;
    AnalysisInput In;
    In.FileName = R.Files[0].Path;
    In.Source = R.Files[0].Source;
    In.Options =
        cli::assembleOptions(Cli, In.FileName, In.Source, Warnings);
    std::vector<AnalysisResult> Results =
        AnalysisSession::analyzeBatch({In});
    cli::RunOutput Run = cli::renderRun(Cli, {In.FileName}, Results);
    EXPECT_EQ(normalizeReport(Cold->find("stdout")->asString()),
              normalizeReport(Run.Out));
    EXPECT_EQ(int(Cold->find("exit_code")->asNumber()), Run.ExitCode);
  }

  // Execution-only re-parametrization: the artifacts must still hit.
  Request Sweep = analyzeRequest();
  Sweep.Args = {"--json", "--threshold", "42.5"};
  std::optional<JsonValue> Re = C->roundTrip(Sweep, Err);
  ASSERT_TRUE(Re) << Err;
  ASSERT_TRUE(Re->find("ok")->asBool());
  EXPECT_EQ(cacheField(*Re, "frontend_hits"), 1u)
      << "a threshold sweep must not re-run the frontend";

  // status / cache-stats report the daemon's view of the same traffic.
  Request St;
  St.Operation = Request::Op::Status;
  std::optional<JsonValue> Status = C->roundTrip(St, Err);
  ASSERT_TRUE(Status) << Err;
  EXPECT_TRUE(Status->find("ok")->asBool());
  EXPECT_EQ(uint64_t(Status->find("requests_served")->asNumber()), 3u);

  Request Cs;
  Cs.Operation = Request::Op::CacheStats;
  std::optional<JsonValue> Stats = C->roundTrip(Cs, Err);
  ASSERT_TRUE(Stats) << Err;
  EXPECT_EQ(uint64_t(Stats->find("frontend_hits")->asNumber()), 2u);
  EXPECT_EQ(uint64_t(Stats->find("frontend_misses")->asNumber()), 1u);
  EXPECT_EQ(uint64_t(Stats->find("frontend_entries")->asNumber()), 1u);
}

TEST(ServeDaemon, MalformedAndInvalidRequestsGetErrorResponses) {
  DaemonFixture D(uniqueSocketPath("err"));
  ASSERT_TRUE(D.Ok) << D.Error;
  std::string Err;
  std::unique_ptr<Client> C = Client::connect(D.Srv.socketPath(), Err);
  ASSERT_TRUE(C) << Err;

  // A flag the parser rejects travels back as a protocol-level error.
  Request Bad = analyzeRequest();
  Bad.Args = {"--no-such-flag"};
  std::optional<JsonValue> R = C->roundTrip(Bad, Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_FALSE(R->find("ok")->asBool());
  EXPECT_NE(R->find("error")->asString().find("unknown flag"),
            std::string::npos);

  // Input paths may not sneak through args — files travel in 'files'.
  Request Sneak = analyzeRequest();
  Sneak.Args = {"--json", "/etc/passwd"};
  R = C->roundTrip(Sneak, Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_FALSE(R->find("ok")->asBool());

  // A frontend failure is NOT an error: it is the driver's regular report
  // with the driver's exit code.
  Request Broken = analyzeRequest();
  Broken.Files[0].Source = "int main(void) { goto x; }";
  R = C->roundTrip(Broken, Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_TRUE(R->find("ok")->asBool());
  EXPECT_EQ(int(R->find("exit_code")->asNumber()), 2);
}

TEST(ServeDaemon, SocketLifecycle) {
  std::string Socket = uniqueSocketPath("sock");

  // A stale socket file (dead daemon) is recovered, not a fatal bind error.
  {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(Fd, 0);
    sockaddr_un Addr;
    memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    memcpy(Addr.sun_path, Socket.c_str(), Socket.size() + 1);
    ASSERT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
              0);
    ::close(Fd); // No listener remains; only the filesystem entry.
  }
  auto D = std::make_unique<DaemonFixture>(Socket);
  ASSERT_TRUE(D->Ok) << "stale socket must be recovered: " << D->Error;

  // A second daemon on a live socket must refuse to start.
  Server Second(DaemonFixture::makeConfig(Socket));
  std::string Err;
  EXPECT_FALSE(Second.start(Err));
  EXPECT_NE(Err.find("already listening"), std::string::npos) << Err;

  // A shutdown request stops wait() cleanly and unlinks the socket.
  std::unique_ptr<Client> C = Client::connect(Socket, Err);
  ASSERT_TRUE(C) << Err;
  Request Sd;
  Sd.Operation = Request::Op::Shutdown;
  std::optional<JsonValue> R = C->roundTrip(Sd, Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_TRUE(R->find("ok")->asBool());
  D->Waiter.join();
  EXPECT_EQ(D->ExitCode, 0);
  D->Ok = false; // Already stopped; the fixture must not double-join.
  D.reset();
  EXPECT_NE(::access(Socket.c_str(), F_OK), 0)
      << "socket file must be unlinked on shutdown";
}

TEST(ServeDaemon, ConcurrentClientsShareTheDaemon) {
  DaemonFixture D(uniqueSocketPath("conc"));
  ASSERT_TRUE(D.Ok) << D.Error;

  constexpr int N = 4;
  std::vector<std::string> Outputs(N);
  std::vector<std::thread> Clients;
  for (int I = 0; I < N; ++I)
    Clients.emplace_back([&, I] {
      std::string Err;
      std::unique_ptr<Client> C = Client::connect(D.Srv.socketPath(), Err);
      ASSERT_TRUE(C) << Err;
      std::optional<JsonValue> R = C->roundTrip(analyzeRequest(), Err);
      ASSERT_TRUE(R) << Err;
      ASSERT_TRUE(R->find("ok")->asBool());
      Outputs[I] = normalizeReport(R->find("stdout")->asString());
    });
  for (std::thread &T : Clients)
    T.join();
  for (int I = 1; I < N; ++I)
    EXPECT_EQ(Outputs[0], Outputs[I])
        << "concurrent requests must not perturb each other's reports";
}

//===----------------------------------------------------------------------===//
// Protocol hardening: malformed frames over a raw socket
//===----------------------------------------------------------------------===//

namespace {

/// A bare AF_UNIX connection, bypassing the Client's request encoding so
/// the tests can ship frames no well-behaved client would produce.
class RawConn {
public:
  explicit RawConn(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return;
    sockaddr_un Addr;
    memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~RawConn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  bool ok() const { return Fd >= 0; }
  bool send(const std::string &Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t W = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
      if (W <= 0)
        return false;
      Off += size_t(W);
    }
    return true;
  }
  /// Reads until a newline or EOF; the line without its terminator.
  std::string recvLine() {
    std::string Line;
    char C;
    while (::read(Fd, &C, 1) == 1) {
      if (C == '\n')
        break;
      Line.push_back(C);
    }
    return Line;
  }

private:
  int Fd = -1;
};

/// Parses a response line and returns its error_kind ("" when ok:true or
/// unparseable).
std::string errorKindOf(const std::string &Line, bool *Ok = nullptr) {
  std::string Err;
  std::optional<JsonValue> Doc = JsonValue::parse(Line, Err);
  if (!Doc || !Doc->isObject())
    return "<unparseable>";
  const JsonValue *OkV = Doc->find("ok");
  if (Ok)
    *Ok = OkV && OkV->asBool();
  if (OkV && OkV->asBool())
    return "";
  const JsonValue *K = Doc->find("error_kind");
  return K && K->isString() ? K->asString() : "<missing>";
}

} // namespace

TEST(ServeDaemonHardening, MalformedFramesGetStructuredErrorsAndTheDaemonSurvives) {
  DaemonFixture D(uniqueSocketPath("mal"));
  ASSERT_TRUE(D.Ok) << D.Error;

  struct Case {
    const char *Name;
    std::string Frame;
    const char *WantKind;
  };
  const Case Cases[] = {
      {"not JSON at all", "this is not json\n", "bad-request"},
      {"JSON non-object", "[1,2,3]\n", "bad-request"},
      {"unknown op", "{\"op\":\"explode\"}\n", "bad-request"},
      {"missing op", "{\"args\":[]}\n", "bad-request"},
      {"analyze without files", "{\"op\":\"analyze\"}\n", "bad-request"},
      {"invalid UTF-8", std::string("{\"op\":\"status\"\xff\xfe}\n"),
       "bad-request"},
      {"embedded NUL garbage", std::string("\x00\x01\x02\n", 4),
       "bad-request"},
  };
  for (const Case &C : Cases) {
    RawConn Conn(D.Srv.socketPath());
    ASSERT_TRUE(Conn.ok()) << C.Name;
    ASSERT_TRUE(Conn.send(C.Frame)) << C.Name;
    EXPECT_EQ(errorKindOf(Conn.recvLine()), C.WantKind) << C.Name;
  }

  // A truncated frame (bytes, no newline, then close) is simply dropped.
  {
    RawConn Conn(D.Srv.socketPath());
    ASSERT_TRUE(Conn.ok());
    ASSERT_TRUE(Conn.send("{\"op\":\"status\""));
  }

  // After all of the abuse the daemon still answers a well-formed request.
  std::string Err;
  std::unique_ptr<Client> C = Client::connect(D.Srv.socketPath(), Err);
  ASSERT_TRUE(C) << Err;
  Request St;
  St.Operation = Request::Op::Status;
  std::optional<JsonValue> R = C->roundTrip(St, Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_TRUE(R->find("ok")->asBool());
}

TEST(ServeDaemonHardening, OversizedRequestLineIsRefusedBeforeParsing) {
  DaemonFixture D(uniqueSocketPath("big"),
                  [](ServerConfig &C) { C.MaxRequestBytes = 4096; });
  ASSERT_TRUE(D.Ok) << D.Error;

  RawConn Conn(D.Srv.socketPath());
  ASSERT_TRUE(Conn.ok());
  // 8 KiB of newline-less bytes: twice the configured cap. The daemon must
  // refuse (and close) instead of buffering forever.
  ASSERT_TRUE(Conn.send(std::string(8192, 'x')));
  std::string Kind = errorKindOf(Conn.recvLine());
  EXPECT_EQ(Kind, "bad-request");

  // The daemon survives to serve the next connection.
  std::string Err;
  std::unique_ptr<Client> C = Client::connect(D.Srv.socketPath(), Err);
  ASSERT_TRUE(C) << Err;
  Request St;
  St.Operation = Request::Op::Status;
  std::optional<JsonValue> R = C->roundTrip(St, Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_TRUE(R->find("ok")->asBool());
}

//===----------------------------------------------------------------------===//
// Governance through the daemon: deadlines, budgets, shutdown drain
//===----------------------------------------------------------------------===//

namespace {

/// An analyze request over a generated family member — big enough that a
/// 1 ms deadline always expires mid-flight (or while queued).
Request familyAnalyzeRequest(std::vector<std::string> ExtraArgs) {
  codegen::GeneratorConfig C;
  C.TargetLines = 2000;
  C.Seed = 7;
  codegen::FamilyProgram FP = codegen::generateFamilyProgram(C);
  std::string Src;
  for (const auto &[Name, Itv] : FP.VolatileRanges)
    Src += "// @astral volatile " + Name + " " + std::to_string(Itv.Lo) +
           " " + std::to_string(Itv.Hi) + "\n";
  for (const std::string &F : FP.PartitionFunctions)
    Src += "// @astral partition " + F + "\n";
  Src += "// @astral clock-max 1e6\n";
  Src += FP.Source;

  Request R;
  R.Operation = Request::Op::Analyze;
  R.Args = {"--json"};
  for (std::string &A : ExtraArgs)
    R.Args.push_back(std::move(A));
  FilePayload F;
  F.Path = "family.c";
  F.Source = Src;
  R.Files.push_back(F);
  return R;
}

} // namespace

TEST(ServeDaemonGovernance, DeadlineExpiryIsAStructuredTimeoutError) {
  DaemonFixture D(uniqueSocketPath("ddl"));
  ASSERT_TRUE(D.Ok) << D.Error;
  std::string Err;
  std::unique_ptr<Client> C = Client::connect(D.Srv.socketPath(), Err);
  ASSERT_TRUE(C) << Err;

  std::optional<JsonValue> R =
      C->roundTrip(familyAnalyzeRequest({"--deadline-ms=1"}), Err);
  ASSERT_TRUE(R) << Err;
  bool Ok = true;
  EXPECT_EQ(errorKindOf(R->serialize(), &Ok), "timeout");
  EXPECT_FALSE(Ok);

  // Request isolation: the expired request cost the daemon nothing.
  std::optional<JsonValue> After = C->roundTrip(analyzeRequest(), Err);
  ASSERT_TRUE(After) << Err;
  EXPECT_TRUE(After->find("ok")->asBool());
}

TEST(ServeDaemonGovernance, BudgetFailAndDegradeThroughTheDaemon) {
  DaemonFixture D(uniqueSocketPath("bud"));
  ASSERT_TRUE(D.Ok) << D.Error;
  std::string Err;
  std::unique_ptr<Client> C = Client::connect(D.Srv.socketPath(), Err);
  ASSERT_TRUE(C) << Err;

  // --on-budget=fail: a structured over-budget error.
  std::optional<JsonValue> Fail = C->roundTrip(
      familyAnalyzeRequest({"--memory-budget-bytes=1", "--on-budget=fail"}),
      Err);
  ASSERT_TRUE(Fail) << Err;
  EXPECT_EQ(errorKindOf(Fail->serialize()), "over-budget");

  // Default degrade: a successful, honestly-labeled report.
  std::optional<JsonValue> Deg =
      C->roundTrip(familyAnalyzeRequest({"--memory-budget-bytes=1"}), Err);
  ASSERT_TRUE(Deg) << Err;
  ASSERT_TRUE(Deg->find("ok")->asBool());
  EXPECT_NE(Deg->find("stdout")->asString().find("\"degraded\": true"),
            std::string::npos)
      << "a budget-degraded daemon report must carry the degraded label";
}

TEST(RequestQueue, ExpiredJobsAreDroppedBeforeDispatch) {
  ArtifactCache Cache(8);
  RequestQueue Q(Scheduler::create(2), Cache);
  Q.pause();
  std::future<RequestQueue::Outcome> F =
      Q.submit(trivialInput("late.c"), 0, /*DeadlineMs=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Q.resume();
  RequestQueue::Outcome Out = F.get();
  EXPECT_FALSE(Out.ok());
  EXPECT_EQ(Out.ErrorKind, "timeout");
  EXPECT_NE(Out.ErrorMessage.find("never started"), std::string::npos);
}

TEST(RequestQueue, ShutdownDrainsQueuedJobsWithStructuredErrors) {
  ArtifactCache Cache(8);
  RequestQueue Q(Scheduler::create(2), Cache);
  Q.pause();
  std::future<RequestQueue::Outcome> Queued =
      Q.submit(trivialInput("queued.c"), 0);
  Q.beginShutdown(); // Never resumed: the job must not run.
  RequestQueue::Outcome Out = Queued.get();
  EXPECT_FALSE(Out.ok());
  EXPECT_EQ(Out.ErrorKind, "shutting-down");

  // Submissions after shutdown resolve immediately, same outcome.
  RequestQueue::Outcome Late = Q.submit(trivialInput("late.c"), 0).get();
  EXPECT_FALSE(Late.ok());
  EXPECT_EQ(Late.ErrorKind, "shutting-down");
}

//===----------------------------------------------------------------------===//
// Chaos: injected faults must become error responses, never daemon crashes
//===----------------------------------------------------------------------===//

namespace {

/// Clears process-global fault arming however the test exits.
struct FaultGuard {
  ~FaultGuard() { faultinject::reset(); }
};

} // namespace

TEST(ServeDaemonChaos, AnalysisSideFaultsAreIsolatedToTheirRequest) {
  FaultGuard G;
  DaemonFixture D(uniqueSocketPath("chaos-an"));
  ASSERT_TRUE(D.Ok) << D.Error;
  std::string Err;
  std::unique_ptr<Client> C = Client::connect(D.Srv.socketPath(), Err);
  ASSERT_TRUE(C) << Err;

  // Unique content per site: the cache must miss so the faulted phase
  // (frontend parse, cache insert) actually runs.
  auto UniqueRequest = [](const char *Tag) {
    Request R = analyzeRequest();
    R.Files[0].Source += std::string("\n// chaos ") + Tag + "\n";
    return R;
  };
  for (const char *Site : {"frontend", "cache-insert"}) {
    faultinject::arm(Site, 1);
    std::optional<JsonValue> R = C->roundTrip(UniqueRequest(Site), Err);
    ASSERT_TRUE(R) << Site << ": " << Err;
    EXPECT_EQ(errorKindOf(R->serialize()), "internal") << Site;
    EXPECT_NE(R->find("error")->asString().find("injected fault"),
              std::string::npos)
        << Site;
    faultinject::reset();

    // The same request succeeds once the fault clears — the daemon (and
    // its cache) took no damage.
    std::optional<JsonValue> After = C->roundTrip(UniqueRequest(Site), Err);
    ASSERT_TRUE(After) << Site << ": " << Err;
    EXPECT_TRUE(After->find("ok")->asBool()) << Site;
  }

  // A worker-task fault needs an analysis that actually fans out: the
  // family member's pack groups and trace partitions dispatch pool tasks
  // under the daemon's 2-job scheduler.
  faultinject::arm("scheduler-worker", 1);
  std::optional<JsonValue> R = C->roundTrip(familyAnalyzeRequest({}), Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_EQ(errorKindOf(R->serialize()), "internal") << "scheduler-worker";
  faultinject::reset();

  // The daemon survives the worker casualty and serves the next request.
  std::optional<JsonValue> After = C->roundTrip(analyzeRequest(), Err);
  ASSERT_TRUE(After) << Err;
  EXPECT_TRUE(After->find("ok")->asBool());
}

TEST(ServeDaemonChaos, TransportFaultsAreAbsorbedByClientRetries) {
  FaultGuard G;
  DaemonFixture D(uniqueSocketPath("chaos-tx"));
  ASSERT_TRUE(D.Ok) << D.Error;

  for (const char *Site : {"socket-write", "torn-frame"}) {
    faultinject::arm(Site, 1);
    ConnectOptions Opts;
    Opts.Retries = 2;
    Opts.BackoffBaseMs = 1;
    std::string Err;
    std::unique_ptr<Client> C =
        Client::connect(D.Srv.socketPath(), Err, Opts);
    ASSERT_TRUE(C) << Site << ": " << Err;
    Request St;
    St.Operation = Request::Op::Status;
    std::optional<JsonValue> R = C->roundTrip(St, Err);
    ASSERT_TRUE(R) << Site << ": the retry must recover: " << Err;
    EXPECT_TRUE(R->find("ok")->asBool()) << Site;
    EXPECT_GE(C->retriesUsed(), 1u) << Site;
    faultinject::reset();
  }
}

TEST(ServeDaemonChaos, StickyTransportFaultFailsBoundedAndTheDaemonSurvives) {
  FaultGuard G;
  DaemonFixture D(uniqueSocketPath("chaos-sticky"));
  ASSERT_TRUE(D.Ok) << D.Error;

  faultinject::arm("torn-frame", 1, /*Sticky=*/true);
  ConnectOptions Opts;
  Opts.Retries = 2;
  Opts.BackoffBaseMs = 1;
  std::string Err;
  std::unique_ptr<Client> C = Client::connect(D.Srv.socketPath(), Err, Opts);
  ASSERT_TRUE(C) << Err;
  Request St;
  St.Operation = Request::Op::Status;
  std::optional<JsonValue> R = C->roundTrip(St, Err);
  EXPECT_FALSE(R) << "a sticky fault must exhaust the bounded retries";
  EXPECT_EQ(C->retriesUsed(), 2u);

  // The fault was in the response path, not the daemon's state: disarm and
  // everything works again.
  faultinject::reset();
  std::unique_ptr<Client> C2 = Client::connect(D.Srv.socketPath(), Err);
  ASSERT_TRUE(C2) << Err;
  R = C2->roundTrip(St, Err);
  ASSERT_TRUE(R) << Err;
  EXPECT_TRUE(R->find("ok")->asBool());
}
