#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <ctime>

namespace perfbench {

namespace {

std::int64_t read_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t cpu_now(cpu_scope s) {
  return s == cpu_scope::process ? process_cpu_ns() : thread_cpu_ns();
}

/// Innermost open span on this thread (0 = none).
thread_local std::uint32_t t_current = 0;

}  // namespace

const char* to_string(layer l) {
  switch (l) {
    case layer::bench: return "bench";
    case layer::workload: return "workload";
    case layer::topo: return "topo";
    case layer::harness: return "harness";
    case layer::sim: return "sim";
    case layer::stats: return "stats";
  }
  return "?";
}

std::int64_t wall_ns() { return read_clock(CLOCK_MONOTONIC); }
std::int64_t thread_cpu_ns() { return read_clock(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return read_clock(CLOCK_PROCESS_CPUTIME_ID); }

std::uint32_t tracer::open(const char* name, layer l, std::int64_t trace_id,
                           std::uint32_t parent, cpu_scope scope) {
  span s;
  s.name = name;
  s.lyr = l;
  s.trace_id = trace_id;
  s.parent = parent == kInherit ? t_current : parent;
  s.scope = scope;
  std::uint32_t id = 0;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.id = id;
    if (s.trace_id == kNoTrace && s.parent != 0) {
      s.trace_id = spans_[s.parent - 1].trace_id;
    }
    spans_.push_back(s);
  }
  // Clocks last on open and first on close, so the recorder's own locking
  // is charged to the parent, never to the span.
  const std::int64_t w = wall_ns();
  const std::int64_t c = cpu_now(scope);
  const std::lock_guard<std::mutex> lk(mu_);
  spans_[id - 1].wall_start = w;
  spans_[id - 1].cpu_start = c;
  return id;
}

void tracer::close(std::uint32_t id, std::uint64_t count) {
  cpu_scope scope = cpu_scope::thread;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    scope = spans_[id - 1].scope;
  }
  const std::int64_t c = cpu_now(scope);
  const std::int64_t w = wall_ns();
  const std::lock_guard<std::mutex> lk(mu_);
  span& s = spans_[id - 1];
  s.cpu_end = c;
  s.wall_end = w;
  s.count = count;
}

std::vector<std::int64_t> tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (const span& s : spans_) self[s.id - 1] += s.cpu_ns();
  for (const span& s : spans_) {
    if (s.parent != 0) self[s.parent - 1] -= s.cpu_ns();
  }
  return self;
}

std::array<double, kLayers> tracer::self_seconds() const {
  std::array<double, kLayers> out{};
  const std::vector<std::int64_t> self = self_ns();
  for (const span& s : spans_) {
    out[static_cast<std::size_t>(s.lyr)] +=
        static_cast<double>(self[s.id - 1]) / 1e9;
  }
  return out;
}

double tracer::min_self_seconds() const {
  const std::vector<std::int64_t> self = self_ns();
  if (self.empty()) return 0;
  return static_cast<double>(*std::min_element(self.begin(), self.end())) /
         1e9;
}

bool tracer::write_jsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> self = self_ns();
  for (const span& s : spans_) {
    const std::string trace =
        s.trace_id == kNoTrace ? "null" : std::to_string(s.trace_id);
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"trace_id\":%s,\"name\":\"%s\","
                 "\"layer\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"cpu_ns\":%lld,\"self_cpu_ns\":%lld,\"count\":%llu}\n",
                 s.id, s.parent, trace.c_str(), s.name, to_string(s.lyr),
                 static_cast<long long>(s.wall_start),
                 static_cast<long long>(s.wall_end),
                 static_cast<long long>(s.cpu_ns()),
                 static_cast<long long>(self[s.id - 1]),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

span_guard::span_guard(tracer* t, const char* name, layer l,
                       std::int64_t trace_id, std::uint32_t parent,
                       cpu_scope scope)
    : t_(t) {
  if (t_ == nullptr) return;
  id_ = t_->open(name, l, trace_id, parent, scope);
  saved_current_ = t_current;
  t_current = id_;
}

span_guard::~span_guard() {
  if (t_ == nullptr) return;
  t_->close(id_, count_);
  t_current = saved_current_;
}

}  // namespace perfbench
