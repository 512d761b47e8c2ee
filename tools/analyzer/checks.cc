// The five project-specific checks. Each check is a pure function over the
// lexed token streams; RunChecks applies path filters and suppressions.
//
// Check catalog (ids are stable — baselines and fixtures key on them):
//
//  unchecked-result      A Result<T>/Status returned by a project function
//                        is discarded as a bare statement, or `.value()` is
//                        called with no visible `.ok()` guard (and no
//                        CARDIR_ASSIGN_OR_RETURN) earlier in the function.
//                        Cast to (void) to discard deliberately.
//  scratch-escape        A CdrScratch/EdgeSoA/SweepScratch/DeltaScratch is
//                        captured by reference in a lambda handed to an API
//                        that may outlive the enclosing scope (Submit/Post/
//                        async/std::thread/push_back of callables...). The
//                        sanctioned pattern — per-participant scratch in a
//                        synchronous ParallelFor — is not flagged.
//  float-eq              `==`/`!=` where an operand is a floating literal, a
//                        declared double/float variable, or a call to a
//                        double-returning project function, inside src/core
//                        + src/geometry. Proven-exact sites carry an
//                        `allow(float-eq)` comment with a justification.
//  obs-macro-side-effect An argument of CARDIR_METRIC_*/CARDIR_TRACE_SPAN/
//                        CARDIR_AUDIT/CARDIR_RECORD_EVENT/CARDIR_MEMSTAT_*/
//                        CARDIR_PROFILE_FRAME/CARDIR_DCHECK contains
//                        ++/--/assignment. CARDIR_AUDIT and CARDIR_DCHECK
//                        do not evaluate their arguments under
//                        CARDIR_AUDIT=OFF (DCHECK: with NDEBUG), nor
//                        CARDIR_RECORD_EVENT while the recorder is
//                        disabled, so the side effect silently vanishes.
//  lock-across-compute   A scoped lock (lock_guard/unique_lock/scoped_lock/
//                        shared_lock) is alive across a ComputeCdr*/
//                        ComputeRelationStore call in src/engine —
//                        Compute-CDR runs for hundreds of microseconds on
//                        crossing pairs and must never serialize behind a
//                        mutex.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "analyzer_core.h"

namespace cardir_analyzer {
namespace {

using Tokens = std::vector<Tok>;

bool IsPunct(const Tok& tok, const char* text) {
  return tok.kind == TokKind::kPunct && tok.text == text;
}
bool IsIdent(const Tok& tok, const char* text) {
  return tok.kind == TokKind::kIdent && tok.text == text;
}

// Index of the punct matching the opener at `open` ('(' / '[' / '{'),
// or tokens.size() when unbalanced.
size_t MatchingClose(const Tokens& tokens, size_t open) {
  const std::string& opener = tokens[open].text;
  const char* closer = opener == "(" ? ")" : opener == "[" ? "]" : "}";
  int depth = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kPunct) continue;
    if (tokens[i].text == opener) ++depth;
    if (tokens[i].text == closer && --depth == 0) return i;
  }
  return tokens.size();
}

bool PathContains(const std::string& path, const char* piece) {
  return path.find(piece) != std::string::npos;
}

// A floating-point literal: contains '.' or a decimal exponent (hex
// literals only count with a 'p' exponent).
bool IsFloatLiteral(const Tok& tok) {
  if (tok.kind != TokKind::kNumber) return false;
  const bool hex = tok.text.size() > 1 && tok.text[0] == '0' &&
                   (tok.text[1] == 'x' || tok.text[1] == 'X');
  if (hex) return tok.text.find_first_of("pP") != std::string::npos;
  return tok.text.find_first_of(".eE") != std::string::npos;
}

// ---------------------------------------------------------------------------
// Cross-file collection passes.
// ---------------------------------------------------------------------------

// Function names declared/defined as returning `Status` or `Result<...>`:
// token `Status`/`Result` (with balanced <...> skipped for Result) followed
// by an identifier followed by '('. Also picks up the Status factory
// methods (InvalidArgument, ...), which is correct: discarding those is
// discarding an error.
void CollectStatusFunctions(const Tokens& tokens,
                            std::set<std::string>* names) {
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!IsIdent(tokens[i], "Status") && !IsIdent(tokens[i], "Result")) {
      continue;
    }
    size_t j = i + 1;
    if (tokens[i].text == "Result") {
      if (!IsPunct(tokens[j], "<")) continue;
      int depth = 0;
      while (j < tokens.size()) {
        if (IsPunct(tokens[j], "<")) ++depth;
        if (IsPunct(tokens[j], ">") && --depth == 0) break;
        // Shift tokens would break the template scan; Result payloads in
        // this codebase never contain them.
        ++j;
      }
      ++j;
    }
    if (j + 1 >= tokens.size()) continue;
    // Optional qualified name: Type Class::Method( — record the last
    // identifier of the chain.
    if (tokens[j].kind != TokKind::kIdent) continue;
    size_t name_idx = j;
    while (name_idx + 2 < tokens.size() &&
           IsPunct(tokens[name_idx + 1], "::") &&
           tokens[name_idx + 2].kind == TokKind::kIdent) {
      name_idx += 2;
    }
    if (name_idx + 1 < tokens.size() && IsPunct(tokens[name_idx + 1], "(")) {
      names->insert(tokens[name_idx].text);
    }
  }
}

// Function names declared with some *other* return type: `Type Name(` or
// `Type Class::Name(` where Type is an identifier other than Status/Result.
// A name that appears in both sets is ambiguous at token level (two
// overloads/classes share it) and is dropped from unchecked-result to keep
// the check zero-false-positive on bare calls.
void CollectOtherReturnFunctions(const Tokens& tokens,
                                 std::set<std::string>* names) {
  static const std::set<std::string> kNotATypePrefix = {
      "Status", "Result", "return", "co_return", "else",  "case",
      "new",    "delete", "operator", "sizeof",  "typedef",
  };
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent ||
        kNotATypePrefix.count(tokens[i].text) != 0 ||
        tokens[i + 1].kind != TokKind::kIdent) {
      continue;
    }
    size_t name_idx = i + 1;
    while (name_idx + 2 < tokens.size() &&
           IsPunct(tokens[name_idx + 1], "::") &&
           tokens[name_idx + 2].kind == TokKind::kIdent) {
      name_idx += 2;
    }
    if (name_idx + 1 < tokens.size() && IsPunct(tokens[name_idx + 1], "(")) {
      names->insert(tokens[name_idx].text);
    }
  }
}

// Function names declared/defined as returning double: `double Name(`.
void CollectDoubleFunctions(const Tokens& tokens,
                            std::set<std::string>* names) {
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!IsIdent(tokens[i], "double") && !IsIdent(tokens[i], "float")) {
      continue;
    }
    size_t j = i + 1;
    size_t name_idx = 0;
    while (j + 1 < tokens.size()) {
      if (tokens[j].kind == TokKind::kIdent &&
          IsPunct(tokens[j + 1], "(")) {
        name_idx = j;
        break;
      }
      // Allow `double Class::Name(` and `double* Name(` style chains.
      if (tokens[j].kind == TokKind::kIdent || IsPunct(tokens[j], "::") ||
          IsPunct(tokens[j], "*") || IsPunct(tokens[j], "&")) {
        ++j;
        continue;
      }
      break;
    }
    if (name_idx != 0) names->insert(tokens[name_idx].text);
  }
}

// Per-file: identifiers declared with type double/float (locals, params,
// members): `double a, b;`, `const double& x`, `double t = expr,`. Skips
// the identifier when it opens a parameter list (that is a function name).
void CollectDoubleVars(const Tokens& tokens, std::set<std::string>* names) {
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!IsIdent(tokens[i], "double") && !IsIdent(tokens[i], "float")) {
      continue;
    }
    size_t j = i + 1;
    while (j < tokens.size()) {
      // Skip cv-ref decorations.
      while (j < tokens.size() &&
             (IsPunct(tokens[j], "&") || IsPunct(tokens[j], "*") ||
              IsIdent(tokens[j], "const"))) {
        ++j;
      }
      if (j >= tokens.size() || tokens[j].kind != TokKind::kIdent) break;
      const size_t name_idx = j;
      ++j;
      if (j < tokens.size() && IsPunct(tokens[j], "(")) break;  // Function.
      names->insert(tokens[name_idx].text);
      // Find the next ',' at this nesting level (another declarator) or
      // stop at the end of the declaration.
      int paren = 0;
      bool more = false;
      while (j < tokens.size()) {
        const Tok& tok = tokens[j];
        if (IsPunct(tok, "(") || IsPunct(tok, "[") || IsPunct(tok, "{")) {
          ++paren;
        } else if (IsPunct(tok, ")") || IsPunct(tok, "]") ||
                   IsPunct(tok, "}")) {
          if (paren == 0) break;  // End of parameter list.
          --paren;
        } else if (paren == 0 && IsPunct(tok, ",")) {
          more = true;
          ++j;
          break;
        } else if (paren == 0 && IsPunct(tok, ";")) {
          break;
        }
        ++j;
      }
      if (!more) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Check 1: unchecked-result
// ---------------------------------------------------------------------------

// Note on the CARDIR_RETURN_IF_ERROR / CARDIR_CHECK_OK wrappers: a call
// nested inside their parens is not statement-initial, so the discard
// pattern below never fires on correctly-wrapped calls — no allowlist
// needed.
void CheckUncheckedResult(const FileTokens& file,
                          const std::set<std::string>& status_fns,
                          std::vector<Diagnostic>* diags) {
  const Tokens& tokens = file.tokens;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    // --- Discarded call as a bare statement. ---
    // Statement start: previous token is ';', '{' or '}'; file start counts
    // too. ':' is deliberately NOT a statement start — the else-arm of a
    // ternary (`cond ? a : F(x);`) would otherwise read as a discard.
    const bool stmt_start =
        i == 0 || IsPunct(tokens[i - 1], ";") || IsPunct(tokens[i - 1], "{") ||
        IsPunct(tokens[i - 1], "}");
    if (stmt_start && tokens[i].kind == TokKind::kIdent) {
      // Walk the qualified/member chain: a (::|.|->)-separated identifier
      // sequence; the final identifier is the callee.
      size_t j = i;
      while (j + 2 < tokens.size() &&
             (IsPunct(tokens[j + 1], "::") || IsPunct(tokens[j + 1], ".") ||
              IsPunct(tokens[j + 1], "->")) &&
             tokens[j + 2].kind == TokKind::kIdent) {
        j += 2;
      }
      const std::string& callee = tokens[j].text;
      if (status_fns.count(callee) != 0 && j + 1 < tokens.size() &&
          IsPunct(tokens[j + 1], "(")) {
        const size_t close = MatchingClose(tokens, j + 1);
        if (close + 1 < tokens.size() && IsPunct(tokens[close + 1], ";")) {
          diags->push_back(Diagnostic{
              "unchecked-result", file.path, tokens[j].line,
              "result of '" + callee +
                  "' (Status/Result) is discarded; check .ok(), use "
                  "CARDIR_RETURN_IF_ERROR/CARDIR_CHECK_OK, or cast to "
                  "(void) to discard deliberately"});
        }
      }
    }
    // --- .value() with no visible .ok() guard. ---
    if (IsPunct(tokens[i], ".") && i + 2 < tokens.size() &&
        IsIdent(tokens[i + 1], "value") && IsPunct(tokens[i + 2], "(") &&
        i > 0 && tokens[i - 1].kind == TokKind::kIdent) {
      const std::string& object = tokens[i - 1].text;
      // Heuristic guard scan: look back a window of tokens for
      // `object . ok (` or `object ->ok (`. The window comfortably covers a
      // function body; a guard further away than this is worth repeating.
      bool guarded = false;
      const size_t window_start = i > 600 ? i - 600 : 0;
      for (size_t k = window_start; k + 3 < i; ++k) {
        if (tokens[k].kind == TokKind::kIdent && tokens[k].text == object &&
            (IsPunct(tokens[k + 1], ".") || IsPunct(tokens[k + 1], "->")) &&
            IsIdent(tokens[k + 2], "ok") && IsPunct(tokens[k + 3], "(")) {
          guarded = true;
          break;
        }
      }
      if (!guarded) {
        diags->push_back(Diagnostic{
            "unchecked-result", file.path, tokens[i].line,
            "'" + object +
                ".value()' without a visible '" + object +
                ".ok()' guard (Result::value aborts on error); guard it or "
                "use CARDIR_ASSIGN_OR_RETURN"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 2: scratch-escape
// ---------------------------------------------------------------------------

const std::set<std::string>& ScratchTypes() {
  static const std::set<std::string> kTypes = {
      "CdrScratch", "EdgeSoA", "SweepScratch", "DeltaScratch"};
  return kTypes;
}

// APIs that may run or keep a callable beyond the enclosing scope. The
// synchronous fork-join (ParallelFor) is deliberately absent: the
// per-participant SweepScratch capture inside it is the engine's sanctioned
// ownership pattern.
const std::set<std::string>& EscapeSinks() {
  static const std::set<std::string> kSinks = {
      "Submit",       "Post",  "Enqueue", "Schedule", "Defer",
      "Detach",       "async", "thread",  "Thread",   "push_back",
      "emplace_back", "call_once",
  };
  return kSinks;
}

// Names of variables of a scratch type declared anywhere in this file
// (locals, members, parameters): `Type name`, `Type& name`,
// `std::vector<Type> name`, `thread_local Type name`.
void CollectScratchVars(const Tokens& tokens, std::set<std::string>* names) {
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent ||
        ScratchTypes().count(tokens[i].text) == 0) {
      continue;
    }
    size_t j = i + 1;
    while (j < tokens.size() &&
           (IsPunct(tokens[j], ">") || IsPunct(tokens[j], "&") ||
            IsPunct(tokens[j], "*") || IsIdent(tokens[j], "const"))) {
      ++j;
    }
    if (j < tokens.size() && tokens[j].kind == TokKind::kIdent &&
        !(j + 1 < tokens.size() && IsPunct(tokens[j + 1], "("))) {
      names->insert(tokens[j].text);
    }
  }
}

void CheckScratchEscape(const FileTokens& file,
                        std::vector<Diagnostic>* diags) {
  const Tokens& tokens = file.tokens;
  std::set<std::string> scratch_vars;
  CollectScratchVars(tokens, &scratch_vars);
  if (scratch_vars.empty()) return;

  for (size_t i = 1; i + 1 < tokens.size(); ++i) {
    // Lambda introducer: '[' not preceded by an expression (identifier,
    // ')', ']', or a literal means indexing/subscript).
    if (!IsPunct(tokens[i], "[")) continue;
    const Tok& prev = tokens[i - 1];
    if (prev.kind == TokKind::kIdent || prev.kind == TokKind::kNumber ||
        prev.kind == TokKind::kString || IsPunct(prev, ")") ||
        IsPunct(prev, "]")) {
      continue;
    }
    const size_t capture_close = MatchingClose(tokens, i);
    if (capture_close >= tokens.size()) continue;
    // The lambda must be an argument of a sink call: the token before '['
    // is '(' or ',' whose enclosing call's callee is in EscapeSinks().
    if (!IsPunct(prev, "(") && !IsPunct(prev, ",")) continue;
    // Find the innermost unbalanced '(' scanning backwards from i.
    int depth = 0;
    size_t open = 0;
    bool found_open = false;
    for (size_t k = i; k-- > 0;) {
      if (IsPunct(tokens[k], ")")) ++depth;
      if (IsPunct(tokens[k], "(")) {
        if (depth == 0) {
          open = k;
          found_open = true;
          break;
        }
        --depth;
      }
    }
    if (!found_open || open == 0) continue;
    const Tok& callee = tokens[open - 1];
    if (callee.kind != TokKind::kIdent ||
        EscapeSinks().count(callee.text) == 0) {
      continue;
    }
    // Captures: default '&', or '&name' of a scratch variable.
    bool default_ref = false;
    std::string captured_scratch;
    for (size_t k = i + 1; k < capture_close; ++k) {
      if (IsPunct(tokens[k], "&")) {
        if (k + 1 < capture_close && tokens[k + 1].kind == TokKind::kIdent) {
          if (scratch_vars.count(tokens[k + 1].text) != 0) {
            captured_scratch = tokens[k + 1].text;
            break;
          }
          ++k;
        } else {
          default_ref = true;
        }
      }
    }
    size_t body_open = capture_close + 1;
    // Skip optional parameter list / specifiers to the body brace.
    while (body_open < tokens.size() && !IsPunct(tokens[body_open], "{") &&
           !IsPunct(tokens[body_open], ";")) {
      if (IsPunct(tokens[body_open], "(")) {
        body_open = MatchingClose(tokens, body_open);
      }
      ++body_open;
    }
    if (body_open >= tokens.size() || !IsPunct(tokens[body_open], "{")) {
      continue;
    }
    if (captured_scratch.empty() && default_ref) {
      const size_t body_close = MatchingClose(tokens, body_open);
      for (size_t k = body_open; k < body_close; ++k) {
        if (tokens[k].kind == TokKind::kIdent &&
            scratch_vars.count(tokens[k].text) != 0) {
          captured_scratch = tokens[k].text;
          break;
        }
      }
    }
    if (!captured_scratch.empty()) {
      diags->push_back(Diagnostic{
          "scratch-escape", file.path, tokens[i].line,
          "per-worker scratch '" + captured_scratch +
              "' is captured by reference in a lambda handed to '" +
              callee.text +
              "', which may outlive the worker loop; scratch must stay "
              "owned by its participant (pass a copy or re-acquire inside "
              "the task)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Check 3: float-eq
// ---------------------------------------------------------------------------

void CheckFloatEq(const FileTokens& file,
                  const std::set<std::string>& double_fns,
                  std::vector<Diagnostic>* diags) {
  const Tokens& tokens = file.tokens;
  std::set<std::string> double_vars;
  CollectDoubleVars(tokens, &double_vars);

  auto operand_is_floating = [&](size_t eq, int direction) -> bool {
    if (direction < 0) {
      if (eq == 0) return false;
      const Tok& tok = tokens[eq - 1];
      if (IsFloatLiteral(tok)) return true;
      if (tok.kind == TokKind::kIdent) return double_vars.count(tok.text) != 0;
      if (IsPunct(tok, ")")) {
        // Walk back over the call's parens; the identifier before the
        // matching '(' is the callee.
        int depth = 0;
        for (size_t k = eq; k-- > 0;) {
          if (IsPunct(tokens[k], ")")) ++depth;
          if (IsPunct(tokens[k], "(") && --depth == 0) {
            return k > 0 && tokens[k - 1].kind == TokKind::kIdent &&
                   double_fns.count(tokens[k - 1].text) != 0;
          }
        }
      }
      return false;
    }
    if (eq + 1 >= tokens.size()) return false;
    const Tok& tok = tokens[eq + 1];
    if (IsFloatLiteral(tok)) return true;
    if (tok.kind == TokKind::kIdent) {
      if (eq + 2 < tokens.size() && IsPunct(tokens[eq + 2], "(")) {
        return double_fns.count(tok.text) != 0;
      }
      return double_vars.count(tok.text) != 0;
    }
    if (IsPunct(tok, "-") && eq + 2 < tokens.size()) {
      return IsFloatLiteral(tokens[eq + 2]);
    }
    return false;
  };

  for (size_t i = 1; i + 1 < tokens.size(); ++i) {
    if (!IsPunct(tokens[i], "==") && !IsPunct(tokens[i], "!=")) continue;
    if (operand_is_floating(i, -1) || operand_is_floating(i, +1)) {
      diags->push_back(Diagnostic{
          "float-eq", file.path, tokens[i].line,
          "'" + tokens[i].text +
              "' on floating-point operands in geometry/core code; use an "
              "explicit predicate, or mark the site exact with "
              "// cardir-analyzer: allow(float-eq): <why>"});
    }
  }
}

// ---------------------------------------------------------------------------
// Check 4: obs-macro-side-effect
// ---------------------------------------------------------------------------

const std::set<std::string>& VanishingMacros() {
  static const std::set<std::string> kMacros = {
      "CARDIR_METRIC_COUNT",   "CARDIR_METRIC_GAUGE_SET",
      "CARDIR_METRIC_OBSERVE", "CARDIR_TRACE_SPAN",
      "CARDIR_AUDIT",          "CARDIR_RECORD_EVENT",
      "CARDIR_MEMSTAT_ALLOC",  "CARDIR_MEMSTAT_FREE",
      "CARDIR_PROFILE_FRAME",  "CARDIR_DCHECK",
  };
  return kMacros;
}

void CheckObsMacroSideEffect(const FileTokens& file,
                             std::vector<Diagnostic>* diags) {
  static const std::set<std::string> kSideEffectOps = {
      "++", "--", "=",  "+=", "-=", "*=", "/=",
      "%=", "&=", "|=", "^=", "<<=", ">>=",
  };
  const Tokens& tokens = file.tokens;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent ||
        VanishingMacros().count(tokens[i].text) == 0 ||
        !IsPunct(tokens[i + 1], "(")) {
      continue;
    }
    const size_t close = MatchingClose(tokens, i + 1);
    for (size_t k = i + 2; k < close; ++k) {
      if (tokens[k].kind == TokKind::kPunct &&
          kSideEffectOps.count(tokens[k].text) != 0) {
        diags->push_back(Diagnostic{
            "obs-macro-side-effect", file.path, tokens[k].line,
            "argument of " + tokens[i].text + " contains '" + tokens[k].text +
                "', a side effect that silently vanishes when the macro "
                "skips its arguments (CARDIR_AUDIT=OFF, CARDIR_DCHECK under "
                "NDEBUG, or a disabled recorder); hoist the side effect out "
                "of the macro argument"});
        break;  // One diagnostic per macro invocation.
      }
    }
    i = close;
  }
}

// ---------------------------------------------------------------------------
// Check 5: lock-across-compute
// ---------------------------------------------------------------------------

void CheckLockAcrossCompute(const FileTokens& file,
                            std::vector<Diagnostic>* diags) {
  static const std::set<std::string> kLockTypes = {
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
  const Tokens& tokens = file.tokens;
  // Active scoped locks: brace depth at declaration. A lock dies when the
  // depth drops below its declaration depth.
  struct ActiveLock {
    int depth;
    int line;
  };
  std::vector<ActiveLock> locks;
  int depth = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Tok& tok = tokens[i];
    if (IsPunct(tok, "{")) ++depth;
    if (IsPunct(tok, "}")) {
      --depth;
      while (!locks.empty() && locks.back().depth > depth) locks.pop_back();
    }
    // A declaration: `lock_guard<...> name(` or CTAD `scoped_lock name(`.
    if (tok.kind == TokKind::kIdent && kLockTypes.count(tok.text) != 0 &&
        i + 1 < tokens.size() &&
        (IsPunct(tokens[i + 1], "<") ||
         tokens[i + 1].kind == TokKind::kIdent)) {
      locks.push_back(ActiveLock{depth, tok.line});
    }
    if (!locks.empty() && tok.kind == TokKind::kIdent &&
        i + 1 < tokens.size() && IsPunct(tokens[i + 1], "(") &&
        (tok.text.rfind("ComputeCdr", 0) == 0 ||
         tok.text.rfind("ComputeRelationStore", 0) == 0 ||
         tok.text == "ComputeAllRelations")) {
      diags->push_back(Diagnostic{
          "lock-across-compute", file.path, tok.line,
          "'" + tok.text + "' called while a scoped lock (from line " +
              std::to_string(locks.back().line) +
              ") is held; Compute-CDR work must never run under a mutex — "
              "collect inputs under the lock, release it, then compute"});
    }
  }
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& CheckCatalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"unchecked-result",
       "Result<T>/Status discarded or .value()'d without an ok() guard"},
      {"scratch-escape",
       "CdrScratch/EdgeSoA/SweepScratch/DeltaScratch captured by reference "
       "in a lambda handed to an API that may outlive the worker loop"},
      {"float-eq",
       "==/!= on floating-point operands in src/core + src/geometry outside "
       "annotated proven-exact sites"},
      {"obs-macro-side-effect",
       "side-effecting argument to a macro that skips its arguments under "
       "CARDIR_AUDIT=OFF or a disabled recorder"},
      {"lock-across-compute",
       "mutex held across a ComputeCdr*/ComputeRelationStore call in "
       "src/engine"},
  };
  return kCatalog;
}

std::vector<Diagnostic> RunChecks(const std::vector<FileTokens>& files,
                                  const std::set<std::string>& enabled_checks,
                                  bool no_path_filter) {
  // Cross-file collection passes.
  std::set<std::string> status_fns;
  std::set<std::string> other_fns;
  std::set<std::string> double_fns;
  for (const FileTokens& file : files) {
    CollectStatusFunctions(file.tokens, &status_fns);
    CollectOtherReturnFunctions(file.tokens, &other_fns);
    CollectDoubleFunctions(file.tokens, &double_fns);
  }
  // A name declared with both a Status/Result return and some other return
  // type is ambiguous at token level; keep unchecked-result quiet on it.
  for (const std::string& name : other_fns) status_fns.erase(name);

  std::vector<Diagnostic> raw;
  for (const FileTokens& file : files) {
    const bool in_core_or_geometry =
        PathContains(file.path, "/core/") ||
        PathContains(file.path, "/geometry/");
    const bool in_engine = PathContains(file.path, "/engine/");
    if (enabled_checks.count("unchecked-result") != 0) {
      CheckUncheckedResult(file, status_fns, &raw);
    }
    if (enabled_checks.count("scratch-escape") != 0) {
      CheckScratchEscape(file, &raw);
    }
    if (enabled_checks.count("float-eq") != 0 &&
        (no_path_filter || in_core_or_geometry)) {
      CheckFloatEq(file, double_fns, &raw);
    }
    if (enabled_checks.count("obs-macro-side-effect") != 0) {
      CheckObsMacroSideEffect(file, &raw);
    }
    if (enabled_checks.count("lock-across-compute") != 0 &&
        (no_path_filter || in_engine)) {
      CheckLockAcrossCompute(file, &raw);
    }
  }

  // Apply inline and file-level suppressions.
  std::vector<Diagnostic> out;
  for (Diagnostic& diag : raw) {
    const FileTokens* file = nullptr;
    for (const FileTokens& candidate : files) {
      if (candidate.path == diag.path) {
        file = &candidate;
        break;
      }
    }
    if (file != nullptr) {
      if (file->file_allows.count(diag.check) != 0) continue;
      const auto it = file->line_allows.find(diag.line);
      if (it != file->line_allows.end() && it->second.count(diag.check) != 0) {
        continue;
      }
    }
    out.push_back(std::move(diag));
  }
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.check < b.check;
            });
  return out;
}

}  // namespace cardir_analyzer
