// upn_analyze: shared translation-unit IR for whole-program static analysis.
//
// upn_lint (PR 2) analyzed one file at a time with ad-hoc string scans; the
// passes in this directory need cross-file facts -- the #include graph of
// src/, which header declares which name, where a public function's
// definition lives.  This header defines the one intermediate representation
// every pass consumes:
//
//   * raw lines        -- exactly as on disk (suppression comments live here);
//   * code lines       -- comments and string/char literals blanked out with
//                         lengths preserved, so rules never fire on prose and
//                         columns still line up;
//   * token stream     -- identifiers / numbers / punctuation with line
//                         numbers, for the flow-sensitive rules;
//   * include edges    -- quoted includes with the line they occur on,
//                         resolvable against the unit index;
//   * declaration index-- names a header exports (functions, types, macros,
//                         constants), used by include hygiene and the
//                         contract-coverage audit.
//
// Units are built per file (embarrassingly parallel; the engine fans the
// construction out on upn::ThreadPool) and are immutable afterwards, so
// passes may read them from any thread without synchronization.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace upn::analyze {

/// One file handed to the analyzer: `path` is repo-relative with forward
/// slashes ("src/topology/graph.hpp"), `content` the full text.
struct SourceFile {
  std::string path;
  std::string content;
};

enum class TokenKind : char {
  kIdent = 'i',   ///< identifier or keyword
  kNumber = 'n',  ///< numeric literal (incl. hex floats)
  kPunct = 'p',   ///< one punctuation character
};

struct Token {
  std::string text;
  std::size_t line = 0;  ///< 1-based
  TokenKind kind = TokenKind::kPunct;
};

/// One #include directive.  Only quoted ("...") includes participate in the
/// include graph; system (<...>) includes are recorded for completeness but
/// never resolved.
struct IncludeEdge {
  std::string target;     ///< path between the delimiters, verbatim
  std::size_t line = 0;   ///< 1-based line of the directive
  bool quoted = false;    ///< "..." (true) vs <...> (false)
};

enum class DeclKind : char {
  kFunction = 'f',  ///< free or public member function with a return type
  kType = 't',      ///< class / struct / enum / using alias
  kMacro = 'm',     ///< object- or function-like #define
  kConstant = 'c',  ///< namespace-scope constant / variable declaration
};

/// One exported name.  `kFunction` entries additionally carry what the
/// contract-coverage audit needs: whether the declaration site is also a
/// definition, whether that body contains a contract macro
/// (UPN_REQUIRE/UPN_ENSURE/UPN_INVARIANT) or an `upn-contract-waive(reason)`
/// marker, and how many statements the body holds (trivial accessors are
/// exempt from the audit).
struct Declaration {
  std::string name;
  std::size_t line = 0;
  DeclKind kind = DeclKind::kFunction;
  bool has_body = false;
  bool is_public = true;           ///< namespace scope or `public:` section
  bool has_contract = false;       ///< body contains a UPN_* contract macro
  bool has_waiver = false;         ///< body range carries upn-contract-waive(...)
  std::size_t body_statements = 0; ///< ';' count inside the body
};

/// The per-file IR.  All views are derived from `content` once, at build
/// time; passes never re-parse.
struct Unit {
  std::string path;
  std::string module;  ///< "topology" for src/topology/*, "" outside src/
  bool is_header = false;

  std::vector<std::string> raw;   ///< lines as on disk
  std::vector<std::string> code;  ///< comment/string-stripped, same shape
  std::vector<Token> tokens;
  std::vector<IncludeEdge> includes;
  std::vector<Declaration> decls;
};

/// Splits on '\n'; a trailing newline does not create an empty last line.
[[nodiscard]] std::vector<std::string> split_lines(const std::string& content);

/// The comment/string-stripped view of `lines` (lengths preserved).
[[nodiscard]] std::vector<std::string> code_view(const std::vector<std::string>& lines);

/// True iff `code[pos..]` spells `word` as a whole identifier (allowing an
/// `std::` qualifier but rejecting `othernamespace::word` and `x_word`).
[[nodiscard]] bool word_at(const std::string& code, std::size_t pos, const std::string& word);

/// True iff `word` occurs anywhere in `code` as a whole identifier.
[[nodiscard]] bool contains_word(const std::string& code, const std::string& word);

/// True iff `raw_line` carries a suppression for `rule`.  Two syntaxes, one
/// engine (upn_lint delegates here):
///   upn-lint-allow(<rule>)            bare suppression (PR 2 syntax)
///   upn-analyze-waive(<rule>: <why>)  suppression with a MANDATORY reason;
///                                     an empty reason does not suppress
[[nodiscard]] bool suppressed(const std::string& raw_line, const std::string& rule);

/// The module a repo-relative path belongs to: the full directory path under
/// src/ ("src/routing/x.cpp" -> "routing", "src/routing/online/x.cpp" ->
/// "routing/online" -- nested modules are their own layering units);
/// anything else -> "".
[[nodiscard]] std::string module_of(const std::string& path);

/// Token index just past the balanced group opened at `open` ('(' / '[' /
/// '{'); toks.size() when unbalanced.
[[nodiscard]] std::size_t skip_group(const std::vector<Token>& toks, std::size_t open);

/// Builds the full IR for one file.
[[nodiscard]] Unit build_unit(const std::string& path, const std::string& content);

}  // namespace upn::analyze
