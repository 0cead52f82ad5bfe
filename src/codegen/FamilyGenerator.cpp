//===- codegen/FamilyGenerator.cpp - Synchronous program family --------------===//
//
// Part of ASTRAL, a reproduction of "A Static Analyzer for Large
// Safety-Critical Software" (PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "codegen/FamilyGenerator.h"

#include <cstdio>

using namespace astral;
using namespace astral::codegen;

namespace {

/// xorshift64* — deterministic across platforms (std::mt19937 would be too,
/// but the distributions are not; we only need cheap reproducible draws).
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed ? Seed : 0x9E3779B97F4A7C15ull) {}
  uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545F4914F6CDD1Dull;
  }
  /// Uniform in [0, N).
  unsigned pick(unsigned N) { return static_cast<unsigned>(next() % N); }
  /// Uniform double in [Lo, Hi].
  double real(double Lo, double Hi) {
    return Lo + (Hi - Lo) * (static_cast<double>(next() >> 11) /
                             9007199254740992.0);
  }
};

struct Builder {
  const GeneratorConfig &Config;
  Rng R;
  FamilyProgram Out;
  std::string Decls;
  std::string Funcs;
  std::string LoopBody;
  std::string InitBody;
  /// Lines written to the four parts so far.
  unsigned Lines = 0;
  unsigned Counter = 0;

  explicit Builder(const GeneratorConfig &C) : Config(C), R(C.Seed) {}

  std::string id(const char *Prefix) {
    return std::string(Prefix) + std::to_string(Counter);
  }

  void line(std::string &Dst, const std::string &S) {
    Dst += S;
    Dst += '\n';
    ++Lines;
  }

  void volatileInput(const std::string &Name, const char *Ty, double Lo,
                     double Hi) {
    line(Decls, std::string("volatile ") + Ty + " " + Name + ";");
    Out.VolatileRanges[Name] = Interval(Lo, Hi);
  }

  void call(const std::string &Fn) { line(LoopBody, "    " + Fn + "();"); }

  // ---- Module emitters -------------------------------------------------

  /// Event counter bounded by the synchronous clock (clocked domain).
  void emitCounter() {
    std::string Ev = id("ev"), C = id("cnt"), M = id("mon"), F = id("count");
    volatileInput(Ev, "int", 0, 1);
    line(Decls, "static int " + C + ";");
    line(Decls, "static int " + M + ";");
    line(Funcs, "static void " + F + "(void) {");
    line(Funcs, "  if (" + Ev + " > 0) {");
    line(Funcs, "    " + C + " = " + C + " + 1;");
    line(Funcs, "  }");
    line(Funcs, "  " + M + " = " + C + " * 2;");
    line(Funcs, "}");
    call(F);
  }

  /// Second-order digital filter with reinitialization (Fig. 1; ellipsoid
  /// domain). Coefficients satisfy 0 < b < 1 and a^2 < 4b.
  void emitFilter() {
    std::string In = id("fin"), Rst = id("frst"), X = id("fx"), Y = id("fy"),
                O = id("fout"), F = id("filter");
    double B = R.real(0.55, 0.85);
    double A = R.real(0.2, 1.8) * std::sqrt(B); // a < 2*sqrt(b).
    char ABuf[32], BBuf[32];
    std::snprintf(ABuf, sizeof(ABuf), "%.6ff", A);
    std::snprintf(BBuf, sizeof(BBuf), "%.6ff", B);
    volatileInput(In, "float", -1.0, 1.0);
    volatileInput(Rst, "int", 0, 1);
    line(Decls, "static float " + X + ", " + Y + ";");
    line(Decls, "static float " + O + ";");
    line(Funcs, "static void " + F + "(void) {");
    line(Funcs, "  float t = " + In + ";");
    line(Funcs, "  if (" + Rst + " != 0) {");
    line(Funcs, "    " + Y + " = t;");
    line(Funcs, "    " + X + " = t;");
    line(Funcs, "  } else {");
    line(Funcs, "    float xn = " + std::string(ABuf) + " * " + X + " - " +
                    BBuf + " * " + Y + " + t;");
    line(Funcs, "    " + Y + " = " + X + ";");
    line(Funcs, "    " + X + " = xn;");
    line(Funcs, "  }");
    line(Funcs, "  " + O + " = " + X + " * 0.5f;");
    line(Funcs, "}");
    call(F);
  }

  /// Rate limiter with feedback state (octagon domain: the upper bound of
  /// the state needs u2 <= u, derived by closure from the guard).
  void emitLimiter() {
    std::string In = id("lin"), Y = id("ly"), Cmd = id("lcmd"),
                Tab = id("ltab"), F = id("limit");
    volatileInput(In, "float", -100.0, 100.0);
    line(Decls, "static float " + Y + ";");
    line(Decls, "static float " + Cmd + ";");
    line(Decls, "static const float " + Tab + "[32] = {");
    std::string Row = "  ";
    for (int I = 0; I < 32; ++I) {
      char Buf[24];
      std::snprintf(Buf, sizeof(Buf), "%.3ff,", R.real(-1.0, 1.0));
      Row += Buf;
    }
    line(Decls, Row);
    line(Decls, "};");
    line(Funcs, "static void " + F + "(void) {");
    line(Funcs, "  float u = " + In + ";");
    line(Funcs, "  if (u - " + Y + " > 8.0f) {");
    line(Funcs, "    " + Y + " = " + Y + " + 8.0f;");
    line(Funcs, "  } else {");
    line(Funcs, "    if (" + Y + " - u > 8.0f) {");
    line(Funcs, "      " + Y + " = " + Y + " - 8.0f;");
    line(Funcs, "    } else {");
    line(Funcs, "      " + Y + " = u;");
    line(Funcs, "    }");
    line(Funcs, "  }");
    // Index derivation: safe only when the state is bounded (|y| <= 100
    // and change of scale keeps the subscript within [0, 31]).
    line(Funcs, "  int idx = (int)((" + Y + " + 100.0f) * 0.155f);");
    line(Funcs, "  " + Cmd + " = " + Tab + "[idx];");
    line(Funcs, "}");
    call(F);
  }

  /// Boolean-guarded division (decision-tree domain): the classic
  ///   B := (X == 0); if (!B) ... 1/X ...
  void emitLogic() {
    std::string S = id("sens"), B = id("bz"), Q = id("quot"), F = id("logic");
    volatileInput(S, "int", 0, 10);
    line(Decls, "static _Bool " + B + ";");
    line(Decls, "static int " + Q + ";");
    line(Funcs, "static void " + F + "(void) {");
    // The volatile is read once into a local: a second read could yield a
    // different value and void the boolean guard (real volatile semantics —
    // the analyzer reports exactly that if the sampling is skipped).
    line(Funcs, "  int s = " + S + ";");
    line(Funcs, "  " + B + " = (s == 0);");
    line(Funcs, "  if (!" + B + ") {");
    line(Funcs, "    " + Q + " = 1000 / s;");
    line(Funcs, "  } else {");
    line(Funcs, "    " + Q + " = 0;");
    line(Funcs, "  }");
    line(Funcs, "}");
    call(F);
  }

  /// Self-dependent float update (linearization, Sect. 6.3's example).
  void emitDecay() {
    std::string D = id("dk"), Bl = id("blend"), F = id("decay");
    line(Decls, "static float " + D + ";");
    line(Decls, "static float " + Bl + ";");
    line(InitBody, "  " + D + " = 1.0f;");
    line(Funcs, "static void " + F + "(void) {");
    line(Funcs, "  " + D + " = " + D + " - 0.2f * " + D + ";");
    line(Funcs, "  " + Bl + " = " + D + " * 100.0f;");
    line(Funcs, "}");
    call(F);
  }

  /// Mode-correlated branches (trace partitioning, Sect. 7.1.5).
  void emitSelector() {
    std::string M = id("mode"), In = id("sig"), O = id("sout"),
                F = id("select");
    volatileInput(M, "int", 0, 3);
    volatileInput(In, "float", -50.0, 50.0);
    line(Decls, "static float " + O + ";");
    line(Funcs, "static void " + F + "(void) {");
    line(Funcs, "  float scale;");
    line(Funcs, "  float denom;");
    line(Funcs, "  if (" + M + " == 1) {");
    line(Funcs, "    scale = 0.5f;");
    line(Funcs, "  } else {");
    line(Funcs, "    if (" + M + " == 2) {");
    line(Funcs, "      scale = 2.0f;");
    line(Funcs, "    } else {");
    line(Funcs, "      scale = 1.0f;");
    line(Funcs, "    }");
    line(Funcs, "  }");
    line(Funcs, "  if (" + M + " == 1) {");
    line(Funcs, "    denom = scale - 2.0f;");
    line(Funcs, "  } else {");
    line(Funcs, "    denom = scale + 1.0f;");
    line(Funcs, "  }");
    line(Funcs, "  " + O + " = " + In + " / denom;");
    line(Funcs, "}");
    call(F);
    Out.PartitionFunctions.insert(F);
  }

  /// First-order integrator (widening with thresholds, Sect. 7.1.2: the
  /// bound M = max |beta| / (1 - alpha) must be crossed by a threshold).
  void emitIntegrator() {
    std::string E = id("err"), I = id("integ"), F = id("integrate");
    volatileInput(E, "float", -10.0, 10.0);
    line(Decls, "static float " + I + ";");
    line(Funcs, "static void " + F + "(void) {");
    line(Funcs, "  " + I + " = 0.9f * " + I + " + " + E + ";");
    line(Funcs, "}");
    call(F);
    Out.DocumentedThresholds.push_back(128.0); // M = 10 / 0.1 = 100.
  }

  /// The paper's delayed-widening cascade (7.1.3): X := Y + g; Y := aX + h.
  void emitCascade() {
    std::string G = id("cg"), H = id("ch"), X = id("cx"), Y = id("cy"),
                F = id("cascade");
    volatileInput(G, "float", -1.0, 1.0);
    volatileInput(H, "float", -1.0, 1.0);
    line(Decls, "static float " + X + ", " + Y + ";");
    line(Funcs, "static void " + F + "(void) {");
    line(Funcs, "  " + X + " = " + Y + " + " + G + ";");
    line(Funcs, "  " + Y + " = 0.5f * " + X + " + " + H + ";");
    line(Funcs, "}");
    call(F);
    Out.DocumentedThresholds.push_back(8.0); // |Y| <= 3, |X| <= 4.
  }

  /// Interpolation over a constant table (safe subscripts; volume and
  /// checking-mode coverage).
  void emitInterpolation() {
    std::string In = id("pos"), O = id("val"), Tab = id("itab"),
                F = id("interp");
    volatileInput(In, "float", 0.0, 7.5);
    line(Decls, "static float " + O + ";");
    std::string Row = "static const float " + Tab + "[9] = { ";
    for (int I = 0; I < 9; ++I) {
      char Buf[24];
      std::snprintf(Buf, sizeof(Buf), "%.3ff, ", R.real(0.0, 4.0));
      Row += Buf;
    }
    line(Decls, Row + "};");
    line(Funcs, "static void " + F + "(void) {");
    line(Funcs, "  float x = " + In + ";");
    line(Funcs, "  int i = (int)x;");
    line(Funcs, "  if (i < 0) { i = 0; }");
    line(Funcs, "  if (i > 7) { i = 7; }");
    line(Funcs, "  float frac = x - (float)i;");
    line(Funcs, "  " + O + " = " + Tab + "[i] + (" + Tab + "[i + 1] - " +
                    Tab + "[i]) * frac;");
    line(Funcs, "}");
    call(F);
  }

  /// Guarded division (safe; checking-mode volume).
  void emitSafeDiv() {
    std::string N = id("num"), D = id("den"), Q = id("ratio"),
                F = id("divide");
    volatileInput(N, "int", -1000, 1000);
    volatileInput(D, "int", 0, 100);
    line(Decls, "static int " + Q + ";");
    line(Funcs, "static void " + F + "(void) {");
    line(Funcs, "  int n = " + N + ";");
    line(Funcs, "  int d = " + D + ";"); // Sample once: volatile semantics.
    line(Funcs, "  if (d > 1) {");
    line(Funcs, "    " + Q + " = n / d;");
    line(Funcs, "  }");
    line(Funcs, "}");
    call(F);
  }

  /// Unused "hardware description" table (deleted by the Sect. 5.1 census).
  void emitDeadTable() {
    std::string Tab = id("hw");
    std::string Row = "static const int " + Tab + "[16] = { ";
    for (int I = 0; I < 16; ++I)
      Row += std::to_string(R.pick(4096)) + ", ";
    line(Decls, Row + "};");
  }

  /// A genuine bug: division whose divisor range includes zero (for
  /// soundness tests: the alarm must survive every configuration).
  void emitInjectedBug() {
    std::string D = id("bug_den"), Q = id("bug_q"), F = id("buggy");
    volatileInput(D, "int", 0, 4);
    line(Decls, "static int " + Q + ";");
    line(Funcs, "static void " + F + "(void) {");
    line(Funcs, "  " + Q + " = 7 / " + D + "; /* real division by zero */");
    line(Funcs, "}");
    call(F);
  }

  FamilyProgram build() {
    line(Decls, "/* Generated member of the periodic synchronous program");
    line(Decls, "   family (seed " + std::to_string(Config.Seed) + "). */");

    for (unsigned B = 0; B < Config.InjectedBugs; ++B) {
      ++Counter;
      emitInjectedBug();
      ++Out.ModuleCount;
    }
    while (Lines + 24 < Config.TargetLines) {
      ++Counter;
      switch (R.pick(10)) {
      case 0: emitCounter(); break;
      case 1: emitFilter(); break;
      case 2: emitLimiter(); break;
      case 3: emitLogic(); break;
      case 4: emitDecay(); break;
      case 5: emitSelector(); break;
      case 6: emitIntegrator(); break;
      case 7: emitCascade(); break;
      case 8: emitInterpolation(); break;
      case 9: emitSafeDiv(); break;
      }
      if (R.pick(4) == 0)
        emitDeadTable();
      ++Out.ModuleCount;
    }

    Out.Source = Decls;
    Out.Source += Funcs;
    Out.Source += "static void init_states(void) {\n";
    Out.Source += InitBody;
    Out.Source += "}\n";
    Out.Source += "int main(void) {\n";
    Out.Source += "  init_states();\n";
    Out.Source += "  while (1) {\n";
    Out.Source += LoopBody;
    Out.Source += "    __astral_wait();\n";
    Out.Source += "  }\n";
    Out.Source += "  return 0;\n";
    Out.Source += "}\n";
    Out.LineCount = static_cast<unsigned>(
        std::count(Out.Source.begin(), Out.Source.end(), '\n'));
    return std::move(Out);
  }
};

} // namespace

FamilyProgram codegen::generateFamilyProgram(const GeneratorConfig &Config) {
  Builder B(Config);
  return B.build();
}
