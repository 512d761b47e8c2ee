// cardir-analyzer — project-specific static analysis for the cardir tree.
//
// The analyzer encodes rules that generic tooling (clang-tidy, cppcheck)
// cannot know: this project's Result<T>/Status discipline, its per-worker
// scratch-ownership model, the exact-float-comparison policy of the
// geometry kernels, the compiled-out observability macros, and the
// "no mutex held across Compute-CDR" engine rule. See checks.cc for the
// check catalog and tools/analyzer/README.md for the workflow.
//
// Architecture: a self-contained C++ tokenizer (no preprocessor, no AST)
// feeds per-file token streams to the checks. Token-level analysis is the
// deliberate baseline — it needs zero dependencies, runs everywhere the
// project builds, and two of the five checks (obs-macro-side-effect and
// the suppression comments) are *only* expressible at token level because
// the constructs they police vanish from the AST under CARDIR_AUDIT=OFF /
// macro expansion.

#ifndef CARDIR_TOOLS_ANALYZER_ANALYZER_CORE_H_
#define CARDIR_TOOLS_ANALYZER_ANALYZER_CORE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace cardir_analyzer {

enum class TokKind {
  kIdent,
  kNumber,
  kString,
  kChar,
  kPunct,
  kEof,
};

struct Tok {
  TokKind kind = TokKind::kEof;
  std::string text;
  int line = 0;
};

// Lexed view of one source file, plus the suppression comments found in it.
struct FileTokens {
  std::string path;          // As given on the command line.
  std::vector<Tok> tokens;   // Terminated by a kEof token.
  // Inline suppressions: line number -> check ids allowed on that line.
  // A comment `// cardir-analyzer: allow(check-a,check-b): reason` applies
  // to the line it sits on when code precedes it, otherwise to the next
  // line. `// cardir-analyzer: allow-file(check): reason` (anywhere in the
  // file) suppresses the check for the whole file and requires a reason.
  std::map<int, std::set<std::string>> line_allows;
  std::set<std::string> file_allows;
};

struct Diagnostic {
  std::string check;    // Check id, e.g. "float-eq".
  std::string path;
  int line = 0;
  std::string message;
};

// Tokenizes `content`. Handles //, /* */, string/char literals (including
// raw strings), digit separators, and maximal-munch punctuation.
// Preprocessor directives (with line continuations) are skipped entirely —
// macro *definitions* are not analyzed, macro call sites are (they look
// like ordinary calls to the tokenizer, which is exactly what the
// obs-macro check needs).
FileTokens Lex(const std::string& path, const std::string& content);

// All five checks over the given files. Collection passes (which functions
// return Result/Status, which functions return double) run across the whole
// file set first, so cross-file call sites resolve. Inline and file-level
// suppressions are already applied; baseline filtering is the caller's job.
std::vector<Diagnostic> RunChecks(const std::vector<FileTokens>& files,
                                  const std::set<std::string>& enabled_checks,
                                  bool no_path_filter);

// The check catalog: id -> one-line description.
const std::vector<std::pair<std::string, std::string>>& CheckCatalog();

// Baseline file format: one suppressed finding per line,
//   <check-id>\t<path>\t<line>\t<optional note>
// '#' lines and blank lines are ignored. Returns false on I/O error.
bool LoadBaseline(const std::string& path,
                  std::set<std::string>* keys, std::string* error);
std::string BaselineKey(const Diagnostic& diag);
std::string FormatBaselineLine(const Diagnostic& diag);

}  // namespace cardir_analyzer

#endif  // CARDIR_TOOLS_ANALYZER_ANALYZER_CORE_H_
