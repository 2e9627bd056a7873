#include "perfbench/trace_table.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace upn::perfbench {

SpanTable aggregate_spans(const std::vector<obs::SpanEvent>& events,
                          std::string_view root_prefix) {
  // Events arrive in completion order, so a parent completes after its
  // children; among spans with equal start and duration the later one is
  // the parent.
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const obs::SpanEvent& x = events[a];
    const obs::SpanEvent& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    if (x.dur_ns != y.dur_ns) return x.dur_ns > y.dur_ns;
    return a > b;
  });

  struct Open {
    std::size_t event;
    std::uint64_t end_ns;
    std::uint64_t child_ns;
    bool inside;
  };
  std::vector<Open> stack;
  SpanTable table;
  auto close = [&](const Open& open) {
    if (!open.inside) return;
    const obs::SpanEvent& e = events[open.event];
    SpanTotals& totals = table[e.name];
    totals.count += 1;
    totals.inclusive_s += static_cast<double>(e.dur_ns) * 1e-9;
    totals.self_s += static_cast<double>(e.dur_ns - std::min(e.dur_ns, open.child_ns)) * 1e-9;
  };
  std::uint32_t tid = 0;
  for (const std::size_t i : order) {
    const obs::SpanEvent& e = events[i];
    if (e.tid != tid) {
      for (; !stack.empty(); stack.pop_back()) close(stack.back());
      tid = e.tid;
    }
    while (!stack.empty() && e.start_ns >= stack.back().end_ns) {
      close(stack.back());
      stack.pop_back();
    }
    bool inside = std::string_view{e.name}.starts_with(root_prefix);
    if (!stack.empty()) {
      stack.back().child_ns += e.dur_ns;
      inside = inside || stack.back().inside;
    }
    stack.push_back(Open{i, e.start_ns + e.dur_ns, 0, inside});
  }
  for (; !stack.empty(); stack.pop_back()) close(stack.back());
  return table;
}

double inclusive_s(const SpanTable& table, std::string_view name) {
  const auto it = table.find(name);
  return it == table.end() ? 0.0 : it->second.inclusive_s;
}

double self_s(const SpanTable& table, std::string_view name) {
  const auto it = table.find(name);
  return it == table.end() ? 0.0 : it->second.self_s;
}

void print_span_table(std::ostream& os, const SpanTable& table, std::string_view title,
                      double per, double total_s) {
  os << "--- " << title << " ---\n";
  char line[160];
  std::snprintf(line, sizeof line, "%-30s %8s %14s %14s %7s\n", "span", "count",
                "inclusive_ms", "self_ms", "self%");
  os << line;
  double self_sum = 0.0;
  for (const auto& [name, totals] : table) {
    self_sum += totals.self_s;
    std::snprintf(line, sizeof line, "%-30s %8.1f %14.3f %14.3f %6.1f%%\n", name.c_str(),
                  static_cast<double>(totals.count) / per, totals.inclusive_s / per * 1e3,
                  totals.self_s / per * 1e3,
                  total_s > 0 ? 100.0 * totals.self_s / per / total_s : 0.0);
    os << line;
  }
  std::snprintf(line, sizeof line, "%-30s %8s %14s %14.3f %6.1f%%\n", "(sum of self)", "", "",
                self_sum / per * 1e3, total_s > 0 ? 100.0 * self_sum / per / total_s : 0.0);
  os << line;
}

}  // namespace upn::perfbench
