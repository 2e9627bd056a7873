// Per-layer aggregation of a trace session: count, inclusive and self time
// per span name, restricted to the windows of one root span.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/span.hpp"

namespace upn::perfbench {

struct SpanTotals {
  std::uint64_t count = 0;
  double inclusive_s = 0.0;
  double self_s = 0.0;  ///< inclusive minus the time its direct children cover
};

using SpanTable = std::map<std::string, SpanTotals, std::less<>>;

/// Totals of every span that is, or nests inside, a span whose name starts
/// with `root_prefix`.  Spans nest per thread, so the direct children of a
/// span are disjoint and self time is a plain difference.
[[nodiscard]] SpanTable aggregate_spans(const std::vector<obs::SpanEvent>& events,
                                        std::string_view root_prefix);

[[nodiscard]] double inclusive_s(const SpanTable& table, std::string_view name);
[[nodiscard]] double self_s(const SpanTable& table, std::string_view name);

/// Prints one row per span: count, inclusive and self time divided by
/// `per` (e.g. the number of runs), and self as a share of `total_s`.
void print_span_table(std::ostream& os, const SpanTable& table, std::string_view title,
                      double per, double total_s);

}  // namespace upn::perfbench
