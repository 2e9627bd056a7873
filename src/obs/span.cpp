#include "src/obs/span.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "src/util/contracts.hpp"

namespace upn::obs {

namespace {

constexpr std::size_t kMaxSpanDepth = 64;

struct ThreadSpanState {
  const char* stack[kMaxSpanDepth] = {};
  std::size_t depth = 0;
  std::uint64_t step = 0;
  bool has_step = false;
  std::uint32_t trace_tid = 0;  // assigned on first traced span
};

ThreadSpanState& thread_state() noexcept {
  thread_local ThreadSpanState state;
  return state;
}

// ---- trace session state.  g_trace_on is the fast-path gate; everything
// else lives behind g_trace_mutex.
std::atomic<bool> g_trace_on{false};

std::mutex& trace_mutex() noexcept {
  static std::mutex m;
  return m;
}

struct TraceSession {
  std::string path;
  std::uint64_t origin_ns = 0;
  std::vector<SpanEvent> events;
  std::uint32_t next_tid = 1;
  bool started_explicitly = false;
};

TraceSession& session() noexcept {
  static TraceSession s;
  return s;
}

void record_event(const char* name, std::uint64_t start_ns, std::uint64_t end_ns) {
  ThreadSpanState& state = thread_state();
  const std::lock_guard<std::mutex> lock{trace_mutex()};
  if (!g_trace_on.load(std::memory_order_relaxed)) return;  // stopped meanwhile
  TraceSession& s = session();
  if (state.trace_tid == 0) state.trace_tid = s.next_tid++;
  SpanEvent event;
  event.name = name;
  event.start_ns = start_ns - s.origin_ns;
  event.dur_ns = end_ns - start_ns;
  event.tid = state.trace_tid;
  s.events.push_back(event);
}

void write_trace_at_exit() { write_trace(); }

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- spans ----------------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name) noexcept : name_{name} {
  ThreadSpanState& state = thread_state();
  if (state.depth < kMaxSpanDepth) state.stack[state.depth] = name_;
  ++state.depth;
  init_trace_from_env();
  if (trace_enabled()) {
    timed_ = true;
    start_ns_ = now_ns();
  }
}

ScopedSpan::~ScopedSpan() {
  ThreadSpanState& state = thread_state();
  if (state.depth > 0) --state.depth;
  if (!timed_) return;
  // Destructors are implicitly noexcept; appending to the trace buffer can
  // allocate, and an OOM escaping here would terminate the process mid
  // unwind.  Dropping the event is the only safe failure mode.
  try {
    record_event(name_, start_ns_, now_ns());
  } catch (...) {
  }
}

ScopedStep::ScopedStep(std::uint64_t step) noexcept {
  ThreadSpanState& state = thread_state();
  previous_ = state.step;
  had_previous_ = state.has_step;
  state.step = step;
  state.has_step = true;
}

ScopedStep::~ScopedStep() {
  ThreadSpanState& state = thread_state();
  state.step = previous_;
  state.has_step = had_previous_;
}

void set_current_step(std::uint64_t step) noexcept {
  // upn-contract-waive(every step value is legal; it only tags this thread's error context)
  ThreadSpanState& state = thread_state();
  state.step = step;
  state.has_step = true;
}

std::string current_span_path() {
  // upn-contract-waive(pure read of this thread's span stack; no precondition)
  const ThreadSpanState& state = thread_state();
  std::string path;
  const std::size_t frames = state.depth < kMaxSpanDepth ? state.depth : kMaxSpanDepth;
  for (std::size_t i = 0; i < frames; ++i) {
    if (!path.empty()) path += '/';
    path += state.stack[i];
  }
  return path;
}

std::string context_suffix() {
  // upn-contract-waive(the contract layer's context provider: a contract here would re-enter it)
  const ThreadSpanState& state = thread_state();
  const std::size_t frames = state.depth < kMaxSpanDepth ? state.depth : kMaxSpanDepth;
  std::string suffix;
  if (frames > 0) {
    suffix += "in ";
    suffix += state.stack[frames - 1];
  }
  if (state.has_step) {
    if (!suffix.empty()) suffix += ", ";
    suffix += "step " + std::to_string(state.step);
  }
  if (suffix.empty()) return suffix;
  return " [" + suffix + "]";
}

// ---- trace session --------------------------------------------------------

bool trace_enabled() noexcept {
  return g_trace_on.load(std::memory_order_relaxed);
}

void start_trace(std::string path) {
  // upn-contract-waive(any path is legal; an unwritable one makes write_trace return false)
  const std::lock_guard<std::mutex> lock{trace_mutex()};
  TraceSession& s = session();
  s.path = std::move(path);
  s.origin_ns = now_ns();
  s.events.clear();
  s.started_explicitly = true;
  g_trace_on.store(true, std::memory_order_relaxed);
}

bool init_trace_from_env() {
  // upn-contract-waive(every UPN_TRACE value is legal; unset or empty leaves tracing off)
  static std::atomic<bool> attempted{false};
  if (attempted.exchange(true, std::memory_order_relaxed)) {
    return trace_enabled();
  }
  {
    const std::lock_guard<std::mutex> lock{trace_mutex()};
    if (session().started_explicitly) return true;
    const char* env = std::getenv("UPN_TRACE");
    if (env == nullptr || env[0] == '\0') return false;
    TraceSession& s = session();
    s.path = env;
    s.origin_ns = now_ns();
    g_trace_on.store(true, std::memory_order_relaxed);
  }
  std::atexit(&write_trace_at_exit);
  return true;
}

std::string trace_path() {
  // upn-contract-waive(pure read under the trace lock; no precondition)
  const std::lock_guard<std::mutex> lock{trace_mutex()};
  return trace_enabled() ? session().path : std::string{};
}

bool write_trace() {
  // upn-contract-waive(no session or an IO failure is its false result, not a precondition)
  const std::lock_guard<std::mutex> lock{trace_mutex()};
  if (!g_trace_on.load(std::memory_order_relaxed)) return false;
  TraceSession& s = session();
  if (s.path.empty()) return false;
  std::FILE* out = std::fopen(s.path.c_str(), "w");
  if (out == nullptr) return false;
  // Chrome trace-event format, JSON-object flavor: "X" (complete) events
  // with microsecond timestamps.  Perfetto and chrome://tracing both load it.
  std::fputs("{\"traceEvents\":[", out);
  bool first = true;
  for (const SpanEvent& event : s.events) {
    if (!first) std::fputc(',', out);
    first = false;
    std::fprintf(out,
                 "\n{\"name\":\"%s\",\"cat\":\"upn\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
                 event.name, static_cast<double>(event.start_ns) / 1000.0,
                 static_cast<double>(event.dur_ns) / 1000.0, event.tid);
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", out);
  const bool ok = std::fclose(out) == 0;
  return ok;
}

void stop_trace() {
  // upn-contract-waive(no precondition: stopping an idle session is a no-op)
  const std::lock_guard<std::mutex> lock{trace_mutex()};
  g_trace_on.store(false, std::memory_order_relaxed);
  TraceSession& s = session();
  s.path.clear();
  s.events.clear();
  s.started_explicitly = false;
}

std::vector<SpanEvent> trace_events() {
  // upn-contract-waive(pure copy under the trace lock; no precondition)
  const std::lock_guard<std::mutex> lock{trace_mutex()};
  return session().events;
}

// Install the span context into the contracts layer so ContractViolation
// messages name the phase/step without util depending on obs.
namespace {
const bool g_context_hook_installed = [] {
  set_contract_context_provider(&context_suffix);
  return true;
}();
}  // namespace

}  // namespace upn::obs
