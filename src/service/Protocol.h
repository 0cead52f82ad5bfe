//===- service/Protocol.h - Daemon wire protocol -----------------*- C++ -*-===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `astral serve` protocol: newline-delimited JSON over a Unix-domain
/// stream socket, one request line -> one response line.
///
/// Requests:
///   {"op":"analyze","args":[flag tokens...],"priority":N,
///    "files":[{"path":P,"source":S,"headers":{name:text,...}},...]}
///   {"op":"status"}
///   {"op":"cache-stats"}
///   {"op":"shutdown"}
///
/// The client does everything path-shaped locally (reading files, C++
/// harness extraction, #include preloading) and ships extracted sources;
/// the daemon applies `@astral` directives and the forwarded flag tokens
/// through the same cli::parseArgs/assembleOptions the one-shot driver
/// uses, so semantics cannot drift between the two modes.
///
/// Analyze responses embed the one-shot driver's exact output as opaque
/// strings:
///   {"ok":true,"op":"analyze","schema_version":N,"exit_code":E,
///    "stdout":...,"stderr":...,
///    "cache":{"frontend_hits":..,"frontend_misses":..,
///             "packing_hits":..,"packing_misses":..}}
/// Errors: {"ok":false,"error":"...","error_kind":K} where K classifies the
/// failure machine-readably: "bad-request" (malformed frame, unknown op,
/// oversized line, invalid flags), "timeout" (a --deadline-ms expired),
/// "over-budget" (--memory-budget-bytes exceeded under --on-budget=fail),
/// "shutting-down" (queued but never scheduled before shutdown), and
/// "internal" (any other exception; the daemon itself keeps serving).
/// Every response carries schema_version; the client refuses mismatches
/// (a daemon of another build vintage) instead of printing output it may
/// misread.
///
//===----------------------------------------------------------------------===//

#ifndef ASTRAL_SERVICE_PROTOCOL_H
#define ASTRAL_SERVICE_PROTOCOL_H

#include "service/Json.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace astral {
namespace service {

/// One file as shipped by the client: extracted source plus its preloaded
/// header closure.
struct FilePayload {
  std::string Path;
  std::string Source;
  std::map<std::string, std::string> Headers;
};

struct Request {
  enum class Op { Analyze, Status, CacheStats, Shutdown };
  Op Operation = Op::Status;
  std::vector<std::string> Args;   ///< Forwarded flag tokens (analyze).
  std::vector<FilePayload> Files;  ///< Inputs (analyze).
  int Priority = 0;                ///< Scheduling weight (analyze); higher
                                   ///< preempts queued lower-priority jobs.
};

const char *opName(Request::Op Op);

/// Parses one request line. On failure returns nullopt with \p Err set.
std::optional<Request> decodeRequest(const std::string &Line,
                                     std::string &Err);

/// Client-side encoder; one line, no trailing newline.
std::string encodeRequest(const Request &R);

/// {"ok":false,"error":Message,"error_kind":Kind} — the uniform failure
/// response. \p Kind is one of the classifications documented above;
/// protocol-shaped failures default to "bad-request".
std::string encodeError(const std::string &Message,
                        const std::string &Kind = "bad-request");

/// True iff \p S is well-formed UTF-8. Request lines are rejected before
/// JSON decoding when they are not: the protocol is JSON, and answering a
/// mis-encoded frame with a structured error beats echoing garbage bytes
/// back into a log pipeline.
bool validUtf8(const std::string &S);

} // namespace service
} // namespace astral

#endif // ASTRAL_SERVICE_PROTOCOL_H
