// Dead functions: free src/ functions whose name is never referenced outside
// their own declarations.  Liveness is by name reference (calls,
// address-taken uses, using-declarations all count), so recursion alone does
// not keep a function alive but any overload being used keeps the whole name
// alive -- conservative in the direction that matters.
//
// Candidates come from a namespace-scope definition scan over the token
// stream: every function body outside a named class that is not an
// out-of-line `Class::name` member.  Like the declaration index in ir.cpp
// this is NOT a C++ parser; it recognizes the definition shapes this
// codebase uses and degrades by missing a candidate, never by inventing one.
// It does not reuse the declaration index because that walk keeps a
// statement open across a skipped brace group (an out-of-line destructor,
// say), which would hide the free functions that follow it.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/passes.hpp"

namespace upn::analyze {
namespace {

/// Token index just past a `<...>` template-argument group at `open`.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t k = open; k < toks.size(); ++k) {
    if (toks[k].text == "<") ++depth;
    if (toks[k].text == ">" && --depth == 0) return k + 1;
  }
  return toks.size();
}

/// Keywords that may directly precede '(' without naming a function.
bool control_keyword(const std::string& t) {
  static const std::set<std::string> kw = {
      "return", "else", "new", "delete", "case", "break", "continue", "goto",
      "throw", "sizeof", "do", "operator", "co_return", "if", "while", "for",
      "switch", "public", "private", "protected", "typename", "template",
      "catch", "static_assert", "decltype", "alignof", "alignas", "noexcept",
      "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast"};
  return kw.count(t) != 0;
}

/// A free function definition: its name and the line of the name token.
struct Definition {
  std::string name;
  std::size_t line = 0;
};

/// Where a candidate is defined.
struct Site {
  const Unit* unit = nullptr;
  std::size_t line = 0;
};

struct DefinitionScan {
  const std::vector<Token>& toks;
  std::vector<Definition> out;
  std::size_t i = 0;

  [[nodiscard]] const std::string& tok(std::size_t k) const { return toks[k].text; }

  /// The function-name index in a statement head [begin, end): the first
  /// identifier directly followed by '(' outside parens and template angles,
  /// with at least one preceding token.  npos when the head is not a
  /// function.
  [[nodiscard]] std::size_t head_function(std::size_t begin, std::size_t end) const {
    std::size_t b = begin;
    while (b < end && tok(b) == "template") b = skip_angles(toks, b + 1);
    int paren = 0;
    int angle = 0;
    for (std::size_t k = b; k < end; ++k) {
      const std::string& t = tok(k);
      if (t == "(") ++paren;
      if (t == ")" && paren > 0) --paren;
      if (paren > 0) continue;
      if (t == "<" && k > b && (toks[k - 1].kind == TokenKind::kIdent || tok(k - 1) == ">")) {
        ++angle;
        continue;
      }
      if (t == ">" && angle > 0) {
        --angle;
        continue;
      }
      if (angle > 0) continue;
      if (toks[k].kind == TokenKind::kIdent && k + 1 < end && tok(k + 1) == "(" &&
          k > begin && !control_keyword(t)) {
        return k;
      }
    }
    return std::string::npos;
  }

  /// Records the definition whose name sits at `fn` unless it is a member:
  /// inside a named class, a destructor, or qualified `Class::name`.
  void note(std::size_t fn, const std::string& class_name) {
    if (!class_name.empty() || tok(fn - 1) == "~") return;
    if (fn >= 2 && tok(fn - 1) == "::" && toks[fn - 2].kind == TokenKind::kIdent) return;
    out.push_back(Definition{tok(fn), toks[fn].line});
  }

  /// Parses one brace scope (namespace, class, or the whole file).
  void parse_scope(const std::string& class_name, bool in_class) {
    std::size_t stmt_begin = i;
    int paren = 0;
    while (i < toks.size()) {
      const std::string& t = tok(i);
      if (t == "(") ++paren;
      if (t == ")" && paren > 0) --paren;
      if (paren > 0) {
        ++i;
        continue;
      }
      if (in_class && stmt_begin == i &&
          (t == "public" || t == "private" || t == "protected") && i + 1 < toks.size() &&
          tok(i + 1) == ":") {
        i += 2;
        stmt_begin = i;
        continue;
      }
      if (t == ";") {
        ++i;
        stmt_begin = i;
        continue;
      }
      if (t == "}") {
        ++i;
        return;
      }
      if (t != "{") {
        ++i;
        continue;
      }
      const std::size_t head_begin = stmt_begin;
      const std::size_t head_end = i;
      auto head_has = [&](const char* kw) {
        for (std::size_t k = head_begin; k < head_end; ++k) {
          if (tok(k) == kw) return true;
        }
        return false;
      };
      if (head_has("namespace")) {
        ++i;
        parse_scope("", false);
      } else if (head_has("enum")) {
        i = skip_group(toks, i);
      } else if (head_has("class") || head_has("struct") || head_has("union")) {
        std::size_t n = head_begin;
        while (n < head_end && !(tok(n) == "class" || tok(n) == "struct" || tok(n) == "union")) {
          ++n;
        }
        ++n;
        std::string name;
        if (n < head_end && toks[n].kind == TokenKind::kIdent) name = tok(n);
        ++i;
        parse_scope(name, true);
      } else {
        const std::size_t fn = head_function(head_begin, head_end);
        if (fn != std::string::npos) note(fn, class_name);
        // The body, or a brace initializer / array literal: skip it.
        i = skip_group(toks, i);
      }
      stmt_begin = i;
    }
  }
};

}  // namespace

std::vector<Finding> run_dead_function_pass(const std::vector<Unit>& units) {
  std::vector<Finding> out;

  // Candidates: free functions defined under src/.  Methods are reachable
  // through objects in ways name matching over-approximates badly, and main
  // is a root by construction.
  std::map<std::string, std::vector<Site>> candidates;
  for (const Unit& unit : units) {
    if (unit.module.empty()) continue;
    DefinitionScan scan{unit.tokens, {}, 0};
    scan.parse_scope("", false);
    for (const Definition& d : scan.out) {
      if (d.name != "main") candidates[d.name].push_back(Site{&unit, d.line});
    }
  }
  if (candidates.empty()) return out;

  // Liveness by name reference across the WHOLE analyzed set (CLI, tests,
  // bench, examples are the roots): a name is alive iff it occurs more often
  // than its own definitions and header prototypes account for.  Any
  // reference counts -- calls, address-taken uses, using-declarations -- so
  // the pass errs toward alive, never toward flagging live code (recursion
  // is the documented exception: a self-call keeps a function alive).  Only
  // HEADER prototypes count as self-references: the declaration index can
  // misclassify expression statements in .cpp files (e.g. a call inside an
  // immediately-invoked lambda initializer) as declarations, and counting
  // those would hide real uses.
  std::map<std::string, std::size_t> mentions;
  std::map<std::string, std::size_t> prototypes;
  for (const Unit& unit : units) {
    for (const Token& t : unit.tokens) {
      if (t.kind != TokenKind::kIdent) continue;
      const auto it = mentions.find(t.text);
      if (it != mentions.end()) {
        ++it->second;
      } else if (candidates.count(t.text) != 0) {
        mentions.emplace(t.text, 1);
      }
    }
    if (!unit.is_header) continue;
    for (const Declaration& d : unit.decls) {
      if (d.kind == DeclKind::kFunction && !d.has_body && candidates.count(d.name) != 0) {
        ++prototypes[d.name];
      }
    }
  }

  for (const auto& [name, sites] : candidates) {
    const std::size_t seen = mentions.count(name) != 0 ? mentions.at(name) : 0;
    const std::size_t protos = prototypes.count(name) != 0 ? prototypes.at(name) : 0;
    if (seen > sites.size() + protos) continue;  // referenced somewhere
    std::map<std::string, const Site*> first_per_file;
    for (const Site& site : sites) {
      const Site*& first = first_per_file[site.unit->path];
      if (first == nullptr || site.line < first->line) first = &site;
    }
    for (const auto& [file, site] : first_per_file) {
      if (suppressed(site->unit->raw[site->line - 1], "dead-function")) continue;
      out.push_back(Finding{file, site->line, "dead-function",
                            "free function '" + name +
                                "' is never referenced outside its own declarations "
                                "anywhere in the analyzed tree; delete it"});
    }
  }

  std::sort(out.begin(), out.end(), finding_less);
  return out;
}

}  // namespace upn::analyze
