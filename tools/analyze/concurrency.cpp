// Concurrency-safety pass: walks every lambda handed to upn::ThreadPool's
// `.parallel_for(` / `.parallel_map(` and checks the two invariants the
// pool's determinism contract (src/util/par.hpp) rests on:
//
//   par-shared-mutation  Task bodies may write an outer variable captured by
//                        reference ONLY through an index-disjoint subscript
//                        (a subscript expression naming a lambda parameter),
//                        an atomic, or under a lock.  Anything else is a
//                        data race: `total += x` inside parallel_for is the
//                        canonical bug the per-task-buffer + ordered-merge
//                        idiom exists to prevent.
//   par-shared-rng       One upn::Rng advanced from several tasks makes the
//                        draw sequence depend on scheduling.  Tasks derive
//                        private sub-streams with Rng::stream(seed, index).
//
// The analysis is deliberately conservative in BOTH directions: method
// calls on captured objects are not treated as writes (obs counters take
// `.add(...)` concurrently by design), and a body that takes any lock is
// trusted wholesale.  The pass is per-unit and pure, so the engine fans it
// out with the single-file rules.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/passes.hpp"

namespace upn::analyze {
namespace {

/// Keywords that can precede an identifier without declaring it.
bool control_keyword(const std::string& t) {
  static const std::set<std::string> kw = {
      "return", "else", "new", "delete", "case", "break", "continue", "goto",
      "throw", "sizeof", "do", "operator", "co_return", "if", "while", "for",
      "switch", "public", "private", "protected", "typename", "template"};
  return kw.count(t) != 0;
}

/// Container/string mutators: a call `name.m(...)` with `m` in this set is a
/// write to `name`.  Atomic RMW names (fetch_add, store, ...) are absent on
/// purpose: those operations are safe under concurrency.
bool mutating_method(const std::string& m) {
  static const std::set<std::string> methods = {
      "push_back", "pop_back", "push_front", "pop_front", "insert", "emplace",
      "emplace_back", "emplace_front", "clear", "resize", "erase", "assign",
      "append", "reserve"};
  return methods.count(m) != 0;
}

struct ParLambda {
  bool ref_default = false;           ///< [&] or [&, ...]
  std::set<std::string> ref_names;    ///< [&x, ...]
  std::set<std::string> value_names;  ///< [x, ...] / [x = expr, ...]
  std::set<std::string> params;       ///< task parameters (the index among them)
  std::size_t body_begin = 0;         ///< first token inside the body braces
  std::size_t body_end = 0;           ///< the closing '}' token
};

/// Parses the lambda whose '[' sits at `open`; false when no body follows.
bool parse_lambda(const std::vector<Token>& toks, std::size_t open, ParLambda& out) {
  const std::size_t captures_end = skip_group(toks, open);  // past ']'
  if (captures_end >= toks.size()) return false;

  for (std::size_t k = open + 1; k + 1 < captures_end; ++k) {
    const Token& t = toks[k];
    if (t.text == "&") {
      if (toks[k + 1].kind == TokenKind::kIdent) {
        out.ref_names.insert(toks[k + 1].text);
        ++k;
      } else {
        out.ref_default = true;
      }
    } else if (t.kind == TokenKind::kIdent) {
      out.value_names.insert(t.text);
      // `name = expr` init-captures: skip the initializer.
      if (toks[k + 1].text == "=") {
        while (k + 1 < captures_end && toks[k + 1].text != ",") ++k;
      }
    }
  }

  std::size_t k = captures_end;
  if (k < toks.size() && toks[k].text == "(") {
    const std::size_t params_end = skip_group(toks, k);  // past ')'
    std::string last_ident;
    int depth = 0;
    for (std::size_t p = k; p < params_end; ++p) {
      const std::string& t = toks[p].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (toks[p].kind == TokenKind::kIdent) last_ident = t;
      if (depth == 1 && t == ",") {
        if (!last_ident.empty()) out.params.insert(last_ident);
        last_ident.clear();
      }
      if (t == "=") {  // default argument: the name came just before
        if (!last_ident.empty()) out.params.insert(last_ident);
        while (p + 1 < params_end && toks[p + 1].text != "," && toks[p + 1].text != ")") ++p;
        last_ident.clear();
      }
    }
    if (!last_ident.empty()) out.params.insert(last_ident);
    k = params_end;
  }
  // Trailing specifiers / return type before the body.
  while (k < toks.size() && toks[k].text != "{" && toks[k].text != ";" &&
         toks[k].text != ")") {
    ++k;
  }
  if (k >= toks.size() || toks[k].text != "{") return false;
  out.body_begin = k + 1;
  out.body_end = skip_group(toks, k) - 1;  // index of the closing '}'
  return out.body_end < toks.size();
}

}  // namespace

std::vector<Finding> run_concurrency_pass(const Unit& unit) {
  const std::vector<Token>& toks = unit.tokens;
  std::vector<Finding> out;

  auto emit = [&](std::size_t line_no, const char* rule, std::string message) {
    if (line_no >= 1 && line_no <= unit.raw.size() &&
        suppressed(unit.raw[line_no - 1], rule)) {
      return;
    }
    out.push_back(Finding{unit.path, line_no, rule, std::move(message)});
  };

  // A name declared anywhere in the unit on a line mentioning `atomic` is
  // treated as atomic (covers std::atomic<T> x and vector<atomic<T>> xs).
  auto is_atomic = [&](const std::string& name) {
    for (const std::string& line : unit.code) {
      if (line.find("atomic") != std::string::npos && contains_word(line, name)) return true;
    }
    return false;
  };

  // Outer upn::Rng declarations: `Rng [&|*] name` token patterns, keyed by
  // name with the declaring token index (to tell outer from body-local).
  std::vector<std::pair<std::string, std::size_t>> rng_decls;
  for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
    if (toks[k].text != "Rng" || toks[k].kind != TokenKind::kIdent) continue;
    std::size_t n = k + 1;
    if (toks[n].text == "&" || toks[n].text == "*") ++n;
    if (n < toks.size() && toks[n].kind == TokenKind::kIdent) {
      rng_decls.emplace_back(toks[n].text, k);
    }
  }

  for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
    if (toks[k].kind != TokenKind::kIdent) continue;
    const std::string& name = toks[k].text;
    if (name != "parallel_for" && name != "parallel_map") continue;
    // Call sites only: `pool.parallel_for(...)`; declarations/definitions in
    // src/util/par.hpp are preceded by a type, not '.'.
    if (k == 0 || toks[k - 1].text != ".") continue;

    // Skip explicit template arguments, then require the call parens.
    std::size_t call = k + 1;
    if (call < toks.size() && toks[call].text == "<") {
      int depth = 0;
      while (call < toks.size()) {
        if (toks[call].text == "<") ++depth;
        if (toks[call].text == ">" && --depth == 0) {
          ++call;
          break;
        }
        ++call;
      }
    }
    if (call >= toks.size() || toks[call].text != "(") continue;
    const std::size_t call_end = skip_group(toks, call);

    // The task lambda, when written inline.
    std::size_t lam = call + 1;
    while (lam < call_end && toks[lam].text != "[") ++lam;
    if (lam >= call_end) continue;
    ParLambda lambda;
    if (!parse_lambda(toks, lam, lambda)) continue;

    const std::size_t b = lambda.body_begin;
    const std::size_t e = lambda.body_end;

    // A body that takes any lock is trusted wholesale.
    bool locked = false;
    for (std::size_t j = b; j < e; ++j) {
      const std::string& t = toks[j].text;
      if (t == "lock_guard" || t == "unique_lock" || t == "scoped_lock" || t == "mutex") {
        locked = true;
        break;
      }
    }

    // Body-local names: lambda parameters plus every identifier that appears
    // in a declaration position (`Type name`, `auto& name`, `Type* name`).
    std::set<std::string> locals = lambda.params;
    for (std::size_t j = b; j < e; ++j) {
      if (toks[j].kind != TokenKind::kIdent || control_keyword(toks[j].text)) continue;
      if (j == b) continue;
      const Token& prev = toks[j - 1];
      const bool after_type =
          prev.kind == TokenKind::kIdent && !control_keyword(prev.text);
      const bool after_ref =
          (prev.text == "&" || prev.text == "*" || prev.text == ">") && j >= 2 &&
          toks[j - 2].kind == TokenKind::kIdent && !control_keyword(toks[j - 2].text);
      if (after_type || after_ref) locals.insert(toks[j].text);
    }

    std::set<std::pair<std::size_t, std::string>> reported;

    // par-shared-rng: outer Rng objects used by the task body.
    for (const auto& [rng_name, decl_tok] : rng_decls) {
      if (decl_tok >= b && decl_tok < e) continue;  // declared inside the body
      if (locals.count(rng_name) != 0) continue;    // shadowed by a body decl
      for (std::size_t j = b; j < e; ++j) {
        if (toks[j].kind != TokenKind::kIdent || toks[j].text != rng_name) continue;
        if (reported.insert({toks[j].line, "rng:" + rng_name}).second) {
          emit(toks[j].line, "par-shared-rng",
               "upn::Rng '" + rng_name +
                   "' is shared across parallel tasks, making the draw sequence "
                   "depend on scheduling; derive a private sub-stream per task with "
                   "Rng::stream(seed, task_index)");
        }
        break;
      }
    }

    if (locked) continue;

    // par-shared-mutation: writes to by-reference captured outer names.
    for (std::size_t j = b; j < e; ++j) {
      if (toks[j].kind != TokenKind::kIdent) continue;
      const std::string& target = toks[j].text;
      if (toks[j - 1].text == "." || toks[j - 1].text == ":" ||
          toks[j - 1].text == "::") {
        continue;  // member access / label / scope-qualified
      }

      // Walk past member accesses and subscripts to the mutating operator.
      std::size_t tail = j;
      bool subscripted = false;
      bool disjoint = false;
      std::string method;
      while (tail + 1 < e) {
        if (toks[tail + 1].text == "[") {
          const std::size_t close = skip_group(toks, tail + 1);  // past ']'
          for (std::size_t s = tail + 2; s + 1 < close; ++s) {
            if (toks[s].kind == TokenKind::kIdent && lambda.params.count(toks[s].text) != 0) {
              disjoint = true;
            }
          }
          subscripted = true;
          tail = close - 1;
          continue;
        }
        if (toks[tail + 1].text == "." && tail + 2 < e &&
            toks[tail + 2].kind == TokenKind::kIdent) {
          if (tail + 3 < e && toks[tail + 3].text == "(") {
            method = toks[tail + 2].text;
            break;
          }
          tail += 2;
          continue;
        }
        break;
      }

      bool write = false;
      if (!method.empty()) {
        write = mutating_method(method);
      } else if (tail + 1 < e) {
        const std::string& t1 = toks[tail + 1].text;
        const std::string t2 = tail + 2 < e ? toks[tail + 2].text : "";
        const std::string before = toks[j - 1].text;
        const bool cmp_tail = before == "=" || before == "<" || before == ">" ||
                              before == "!" || before == "+" || before == "-";
        if (t1 == "=" && t2 != "=" && !cmp_tail) write = true;
        if ((t1 == "+" || t1 == "-" || t1 == "*" || t1 == "/" || t1 == "%" ||
             t1 == "&" || t1 == "|" || t1 == "^") &&
            t2 == "=" && (tail + 3 >= e || toks[tail + 3].text != "=")) {
          write = true;
        }
        if ((t1 == "+" && t2 == "+") || (t1 == "-" && t2 == "-")) write = true;
        if (j >= 2 && ((before == "+" && toks[j - 2].text == "+") ||
                       (before == "-" && toks[j - 2].text == "-"))) {
          write = true;  // prefix ++ / --
        }
      }
      if (!write) continue;
      if (subscripted && disjoint) continue;  // out[i] = ... per-task slot
      if (locals.count(target) != 0) continue;
      if (lambda.value_names.count(target) != 0) continue;  // task-private copy
      if (!lambda.ref_default && lambda.ref_names.count(target) == 0) continue;
      if (is_atomic(target)) continue;
      if (!reported.insert({toks[j].line, target}).second) continue;
      emit(toks[j].line, "par-shared-mutation",
           "'" + target +
               "' is captured by reference and written inside a parallel task "
               "without an index-disjoint subscript, an atomic, or a lock; "
               "accumulate into per-task buffers and merge in task order");
    }
  }

  std::sort(out.begin(), out.end(), finding_less);
  return out;
}

}  // namespace upn::analyze
