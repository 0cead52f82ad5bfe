//===- service/Client.h - astral-cli client mode -----------------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's counterpart: `astral-cli client --socket=PATH <op> ...`
/// connects to a running `astral serve`, ships one request line, and
/// renders the response. For `analyze` the client does all path-shaped work
/// locally (file reading, C++-harness extraction, #include preloading — via
/// the shared cli layer) and forwards the verbatim flag tokens, so the
/// daemon sees exactly what the one-shot driver would have parsed; the
/// response's stdout/stderr fields are printed verbatim and the embedded
/// exit code becomes the process exit code. A schema_version mismatch (a
/// daemon of another build vintage) is refused instead of misread.
///
/// Robustness: ConnectOptions buys bounded exponential-backoff-with-jitter
/// connect retries, per-call socket I/O timeouts (SO_RCVTIMEO/SO_SNDTIMEO),
/// and transparent retry of transport failures (send/recv errors, a torn
/// response frame) for idempotent operations — analyze, status,
/// cache-stats; never shutdown, which must not be replayed. Every retry
/// reconnects with a fresh stream (stale carried bytes are discarded), and
/// retriesUsed() exposes the count so tests can pin the behavior.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SERVICE_CLIENT_H
#define ASTRAL_SERVICE_CLIENT_H

#include "service/Protocol.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace astral {
namespace service {

/// Retry/timeout policy for one Client. The defaults (no retries, no
/// timeouts) reproduce the original fail-fast behavior.
struct ConnectOptions {
  /// Extra attempts after a failed connect — and the transport-retry
  /// budget of roundTrip for idempotent operations. 0 = fail fast.
  unsigned Retries = 0;
  /// Delay before the first retry; doubles per attempt, plus up to 50%
  /// random jitter so a fleet of clients does not reconnect in lockstep.
  unsigned BackoffBaseMs = 25;
  /// SO_RCVTIMEO/SO_SNDTIMEO on the socket; 0 = block forever. A timed-out
  /// call surfaces as a transport failure (and is thus retryable).
  unsigned IoTimeoutMs = 0;
};

/// One connection to a serve daemon. Multiple roundTrips may share the
/// connection (the daemon answers lines in order per connection).
class Client {
public:
  ~Client();

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Connects to the daemon's socket; null + \p Err on failure (after
  /// \p Opts.Retries backoff rounds, when configured).
  static std::unique_ptr<Client> connect(const std::string &SocketPath,
                                         std::string &Err,
                                         const ConnectOptions &Opts = {});

  /// Sends \p R as one line and reads one response line, parsed as JSON.
  /// nullopt + \p Err on transport or parse failure. Transport failures of
  /// idempotent operations are retried on a fresh connection up to
  /// Opts.Retries times; a shutdown is never replayed.
  std::optional<JsonValue> roundTrip(const Request &R, std::string &Err);

  /// Transport retries + reconnects this client has performed (test
  /// observability for the chaos suite).
  unsigned retriesUsed() const { return Retries; }

private:
  Client(int Fd, std::string SocketPath, ConnectOptions Opts)
      : Fd(Fd), SocketPath(std::move(SocketPath)), Opts(Opts) {}

  std::optional<JsonValue> tryRoundTrip(const Request &R, std::string &Err);

  int Fd;
  std::string SocketPath; ///< For reconnects after transport failures.
  ConnectOptions Opts;
  unsigned Retries = 0;  ///< Retries spent so far (see retriesUsed).
  std::string Carry; ///< Bytes read past the last consumed newline.
};

/// The `astral-cli client` subcommand: --socket=PATH (plus the optional
/// transport knobs --connect-retries=N and --io-timeout-ms=N) then one of
/// analyze|status|cache-stats|shutdown (analyze takes the one-shot driver's
/// flags and input paths, plus --priority=N to jump — or, negative, yield
/// to — the daemon's queue). Returns the process exit code; a daemon
/// refusal carrying error_kind timeout or over-budget exits 4 like the
/// one-shot driver.
int runClientCommand(const std::vector<std::string> &Args);

} // namespace service
} // namespace astral

#endif // ASTRAL_SERVICE_CLIENT_H
