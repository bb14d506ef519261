// Span recording for the traced benchmark run.
//
// A span is one call the benchmark makes into an engine layer: its layer
// name, wall start/end, the calling thread's CPU time inside it, and the span
// that caused it (the enclosing span on the same thread). Spans of one
// benchmark operation share a trace id. Spans stay in per-thread memory while
// the workload runs and are written out once, after it ends.
//
// Self time of a span is its wall time minus the wall time of its direct
// children; its wait is self wall time minus self CPU time — the part of the
// call the calling thread spent blocked (socket reads, fsync, joins on the
// executor's morsel workers).
#pragma once

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t WallNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

inline uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

struct Span {
  const char* name = nullptr;  ///< layer name (string literal)
  uint64_t trace = 0;          ///< shared by every span of one operation
  int64_t parent = -1;         ///< index into the same thread's log; -1 = root
  uint64_t start_ns = 0, end_ns = 0;
  uint64_t cpu_ns = 0;         ///< calling thread's CPU time inside the span
  uint64_t child_wall_ns = 0, child_cpu_ns = 0;
};

/// Per-layer totals over every recorded span.
struct LayerSummary {
  uint64_t count = 0;
  double self_ms = 0;
  double wait_ms = 0;
  std::vector<double> durations_us;  ///< inclusive wall time of each span
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Call only while no thread records spans.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// One thread's span log. Obtain with ThreadLog() on the thread that records.
  struct Log {
    uint32_t thread = 0;
    uint64_t next_trace = 0;
    std::vector<Span> spans;
    std::vector<size_t> open;  ///< indexes of spans not yet closed
  };

  /// The calling thread's log (created on first use; owned by the tracer).
  Log* ThreadLog() {
    thread_local std::map<const Tracer*, Log*> mine;
    auto it = mine.find(this);
    if (it != mine.end()) return it->second;
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<Log>());
    Log* log = logs_.back().get();
    log->thread = static_cast<uint32_t>(logs_.size() - 1);
    mine[this] = log;
    return log;
  }

  /// Scoped span; does nothing while the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) {
      if (tracer == nullptr || !tracer->enabled()) return;
      log_ = tracer->ThreadLog();
      Span s;
      s.name = name;
      if (log_->open.empty()) {
        s.trace = (static_cast<uint64_t>(log_->thread) << 40) | log_->next_trace++;
      } else {
        s.parent = static_cast<int64_t>(log_->open.back());
        s.trace = log_->spans[log_->open.back()].trace;
      }
      index_ = log_->spans.size();
      log_->open.push_back(index_);
      s.cpu_ns = ThreadCpuNs();
      s.start_ns = WallNs();
      log_->spans.push_back(s);
    }
    ~Scope() {
      if (log_ == nullptr) return;
      Span& s = log_->spans[index_];
      s.end_ns = WallNs();
      s.cpu_ns = ThreadCpuNs() - s.cpu_ns;
      log_->open.pop_back();
      if (s.parent >= 0) {
        Span& p = log_->spans[static_cast<size_t>(s.parent)];
        p.child_wall_ns += s.end_ns - s.start_ns;
        p.child_cpu_ns += s.cpu_ns;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Log* log_ = nullptr;
    size_t index_ = 0;
  };

  /// Aggregates every closed span by layer name. Call after recording threads
  /// have finished.
  std::map<std::string, LayerSummary> Summarize() const {
    std::map<std::string, LayerSummary> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& log : logs_) {
      for (const Span& s : log->spans) {
        if (s.end_ns < s.start_ns) continue;
        LayerSummary& l = out[s.name];
        const uint64_t wall = s.end_ns - s.start_ns;
        const uint64_t self_wall = wall - std::min(wall, s.child_wall_ns);
        const uint64_t self_cpu = s.cpu_ns - std::min(s.cpu_ns, s.child_cpu_ns);
        l.count++;
        l.self_ms += static_cast<double>(self_wall) / 1e6;
        l.wait_ms += static_cast<double>(self_wall - std::min(self_wall, self_cpu)) / 1e6;
        l.durations_us.push_back(static_cast<double>(wall) / 1e3);
      }
    }
    return out;
  }

  /// Writes every span as CSV (thread, trace, index, parent, name, start_ns,
  /// end_ns, cpu_ns). Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "thread,trace,index,parent,name,start_ns,end_ns,cpu_ns\n");
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& log : logs_) {
      for (size_t i = 0; i < log->spans.size(); i++) {
        const Span& s = log->spans[i];
        std::fprintf(f, "%u,%llu,%zu,%lld,%s,%llu,%llu,%llu\n", log->thread,
                     static_cast<unsigned long long>(s.trace), i,
                     static_cast<long long>(s.parent), s.name,
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     static_cast<unsigned long long>(s.cpu_ns));
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Log>> logs_;
};

}  // namespace perfbench
