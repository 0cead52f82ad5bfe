//===- service/Json.cpp - Minimal JSON value for the wire protocol ----------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "service/Json.h"

#include "analyzer/CliOptions.h"

#include <cmath>
#include <cstdint>
#include <cstdio>

namespace astral {
namespace service {

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

void serializeInto(std::string &Out, const JsonValue &V) {
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    Out += "null";
    break;
  case JsonValue::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    break;
  case JsonValue::Kind::Number: {
    double N = V.asNumber();
    // Integral values print as integers (counters, exit codes, versions);
    // everything else round-trips via %.17g.
    if (std::isfinite(N) && N == std::floor(N) && std::fabs(N) < 9.0e15) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%lld",
                    static_cast<long long>(N));
      Out += Buf;
    } else if (std::isfinite(N)) {
      char Buf[40];
      std::snprintf(Buf, sizeof(Buf), "%.17g", N);
      Out += Buf;
    } else {
      Out += "null"; // JSON has no Inf/NaN; the protocol never sends them.
    }
    break;
  }
  case JsonValue::Kind::String:
    Out += '"';
    Out += cli::jsonEscape(V.asString());
    Out += '"';
    break;
  case JsonValue::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const JsonValue &E : V.items()) {
      if (!First)
        Out += ',';
      First = false;
      serializeInto(Out, E);
    }
    Out += ']';
    break;
  }
  case JsonValue::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[Key, Member] : V.members()) {
      if (!First)
        Out += ',';
      First = false;
      Out += '"';
      Out += cli::jsonEscape(Key);
      Out += "\":";
      serializeInto(Out, Member);
    }
    Out += '}';
    break;
  }
  }
}

} // namespace

std::string JsonValue::serialize() const {
  std::string Out;
  serializeInto(Out, *this);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  Parser(const std::string &Text, std::string &Err) : S(Text), Err(Err) {}

  std::optional<JsonValue> run() {
    skipWs();
    JsonValue V;
    if (!parseValue(V))
      return std::nullopt;
    skipWs();
    if (Pos != S.size()) {
      fail("trailing characters after JSON document");
      return std::nullopt;
    }
    return V;
  }

private:
  void fail(const std::string &Msg) {
    if (Err.empty())
      Err = "json: " + Msg + " (at byte " + std::to_string(Pos) + ")";
  }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Lit) {
    size_t Len = std::char_traits<char>::length(Lit);
    if (S.compare(Pos, Len, Lit) != 0) {
      fail(std::string("expected '") + Lit + "'");
      return false;
    }
    Pos += Len;
    return true;
  }

  bool parseValue(JsonValue &Out) {
    if (Pos >= S.size()) {
      fail("unexpected end of input");
      return false;
    }
    switch (S[Pos]) {
    case 'n':
      if (!literal("null"))
        return false;
      Out = JsonValue();
      return true;
    case 't':
      if (!literal("true"))
        return false;
      Out = JsonValue(true);
      return true;
    case 'f':
      if (!literal("false"))
        return false;
      Out = JsonValue(false);
      return true;
    case '"': {
      std::string Str;
      if (!parseString(Str))
        return false;
      Out = JsonValue(std::move(Str));
      return true;
    }
    case '[':
      return parseArray(Out);
    case '{':
      return parseObject(Out);
    default:
      return parseNumber(Out);
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // Opening quote (dispatched on it).
    while (Pos < S.size()) {
      char C = S[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C == '\\') {
        if (Pos + 1 >= S.size()) {
          fail("unterminated escape");
          return false;
        }
        char E = S[Pos + 1];
        Pos += 2;
        switch (E) {
        case '"': Out += '"'; break;
        case '\\': Out += '\\'; break;
        case '/': Out += '/'; break;
        case 'b': Out += '\b'; break;
        case 'f': Out += '\f'; break;
        case 'n': Out += '\n'; break;
        case 'r': Out += '\r'; break;
        case 't': Out += '\t'; break;
        case 'u': {
          if (Pos + 4 > S.size()) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned Code = 0;
          for (int I = 0; I < 4; ++I) {
            char H = S[Pos + size_t(I)];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= unsigned(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code |= unsigned(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code |= unsigned(H - 'A' + 10);
            else {
              fail("invalid \\u escape");
              return false;
            }
          }
          Pos += 4;
          if (Code >= 0xD800 && Code <= 0xDFFF) {
            // Surrogates never appear: the encoder only escapes control
            // bytes, and the protocol carries raw UTF-8 elsewhere.
            fail("surrogate \\u escapes are not supported");
            return false;
          }
          // Encode the BMP code point as UTF-8.
          if (Code < 0x80) {
            Out += char(Code);
          } else if (Code < 0x800) {
            Out += char(0xC0 | (Code >> 6));
            Out += char(0x80 | (Code & 0x3F));
          } else {
            Out += char(0xE0 | (Code >> 12));
            Out += char(0x80 | ((Code >> 6) & 0x3F));
            Out += char(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
          return false;
        }
        continue;
      }
      Out += C;
      ++Pos;
    }
    fail("unterminated string");
    return false;
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    while (Pos < S.size() &&
           ((S[Pos] >= '0' && S[Pos] <= '9') || S[Pos] == '.' ||
            S[Pos] == 'e' || S[Pos] == 'E' || S[Pos] == '+' ||
            S[Pos] == '-'))
      ++Pos;
    if (Pos == Start) {
      fail("expected a value");
      return false;
    }
    try {
      size_t Used = 0;
      std::string Tok = S.substr(Start, Pos - Start);
      double N = std::stod(Tok, &Used);
      if (Used != Tok.size()) {
        fail("malformed number");
        return false;
      }
      Out = JsonValue(N);
      return true;
    } catch (const std::exception &) {
      fail("malformed number");
      return false;
    }
  }

  bool parseArray(JsonValue &Out) {
    ++Pos; // '['
    Out = JsonValue::array();
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      JsonValue E;
      skipWs();
      if (!parseValue(E))
        return false;
      Out.push(std::move(E));
      skipWs();
      if (Pos >= S.size()) {
        fail("unterminated array");
        return false;
      }
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == ']') {
        ++Pos;
        return true;
      }
      fail("expected ',' or ']'");
      return false;
    }
  }

  bool parseObject(JsonValue &Out) {
    ++Pos; // '{'
    Out = JsonValue::object();
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (Pos >= S.size() || S[Pos] != '"') {
        fail("expected object key");
        return false;
      }
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':') {
        fail("expected ':'");
        return false;
      }
      ++Pos;
      skipWs();
      JsonValue V;
      if (!parseValue(V))
        return false;
      Out[Key] = std::move(V);
      skipWs();
      if (Pos >= S.size()) {
        fail("unterminated object");
        return false;
      }
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == '}') {
        ++Pos;
        return true;
      }
      fail("expected ',' or '}'");
      return false;
    }
  }

  const std::string &S;
  std::string &Err;
  size_t Pos = 0;
};

} // namespace

std::optional<JsonValue> JsonValue::parse(const std::string &Text,
                                          std::string &Err) {
  return Parser(Text, Err).run();
}

} // namespace service
} // namespace astral
