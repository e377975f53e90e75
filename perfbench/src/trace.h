// In-memory span recorder for the benchmark's traced run.
//
// The benchmark opens one span around every call it makes into a simulator
// layer (topo, harness, sim, stats, workload) and around its own glue
// (layer `bench`).  A span records its name, layer, trace id, parent span,
// wall start/end and CPU start/end; nothing is written until `write_jsonl`
// runs after the workload ends.
//
// CPU time is per thread (CLOCK_THREAD_CPUTIME_ID), except for spans opened
// with `cpu_scope::process`: those wrap work that fans out to other threads
// (the campaign runner), so their inclusive CPU is the whole process's
// (CLOCK_PROCESS_CPUTIME_ID) and their children on worker threads are
// subtracted from it.  A span's self time is its inclusive CPU minus that
// of its children; summed over all spans it equals the root spans'
// inclusive CPU, which the benchmark checks against getrusage.
//
// A null tracer turns every `span_guard` into a no-op, so the untraced run
// executes the same call sequence without recording anything.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class layer : std::uint8_t { bench, workload, topo, harness, sim, stats };
inline constexpr std::size_t kLayers = 6;
[[nodiscard]] const char* to_string(layer l);

enum class cpu_scope : std::uint8_t { thread, process };

/// Trace id of spans that belong to no campaign job.
inline constexpr std::int64_t kNoTrace = -1;

/// Monotonic wall clock and the two CPU clocks, in nanoseconds.
[[nodiscard]] std::int64_t wall_ns();
[[nodiscard]] std::int64_t thread_cpu_ns();
[[nodiscard]] std::int64_t process_cpu_ns();

struct span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::int64_t trace_id = kNoTrace;
  const char* name = "";
  layer lyr = layer::bench;
  cpu_scope scope = cpu_scope::thread;
  std::int64_t wall_start = 0;
  std::int64_t wall_end = 0;
  std::int64_t cpu_start = 0;
  std::int64_t cpu_end = 0;
  std::uint64_t count = 0;  ///< work items inside (events for sim chunks)

  [[nodiscard]] std::int64_t cpu_ns() const { return cpu_end - cpu_start; }
};

class tracer {
 public:
  /// Parent value meaning "the innermost open span on this thread".
  static constexpr std::uint32_t kInherit = UINT32_MAX;

  std::uint32_t open(const char* name, layer l, std::int64_t trace_id,
                     std::uint32_t parent, cpu_scope scope);
  void close(std::uint32_t id, std::uint64_t count);

  // The readers below run once the traced work has finished.

  /// Self CPU seconds per layer.
  [[nodiscard]] std::array<double, kLayers> self_seconds() const;
  /// Smallest self time of any span, seconds (negative = a child outlived
  /// or out-measured its parent, i.e. a broken span tree).
  [[nodiscard]] double min_self_seconds() const;
  /// One JSON object per span, with its self CPU time.
  bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  std::mutex mu_;  // guards spans_
  std::vector<span> spans_;
};

/// RAII span.  With a null tracer it records nothing.
class span_guard {
 public:
  span_guard(tracer* t, const char* name, layer l,
             std::int64_t trace_id = kNoTrace,
             std::uint32_t parent = tracer::kInherit,
             cpu_scope scope = cpu_scope::thread);
  ~span_guard();
  span_guard(const span_guard&) = delete;
  span_guard& operator=(const span_guard&) = delete;

  void set_count(std::uint64_t n) { count_ = n; }
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  tracer* t_;
  std::uint32_t id_ = 0;
  std::uint32_t saved_current_ = 0;
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
