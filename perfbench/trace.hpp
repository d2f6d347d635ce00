// In-memory span recorder for the benchmark runner.
//
// Spans wrap calls into the massf libraries' public functions, made from
// the runner: nothing inside the libraries is instrumented. Each span has a
// name, the layer it charges, a start and end (seconds since the recorder
// was made) and the index of its parent span (-1 for the root). Spans stay
// in memory until the runner writes its record at the end of the run.
//
// Two kinds of span:
//   * phase() spans are always recorded. They are the run's two or three
//     timing stamps (experiment / setup / emulate), so an untraced run
//     measures setup and emulate time at the same boundaries as a traced one;
//   * span() spans are recorded only when tracing is on; when it is off the
//     body runs with no clock read at all.
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;  // "" for structural spans (setup, experiment)
  int parent = -1;
  double start_s = 0;
  double end_s = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Always-recorded span around `body`; returns what `body` returns.
  template <class F>
  decltype(auto) phase(const char* name, const char* layer, F&& body) {
    const Scope scope(this, name, layer);
    return std::forward<F>(body)();
  }

  /// Span around `body` recorded only when tracing is on.
  template <class F>
  decltype(auto) span(const char* name, const char* layer, F&& body) {
    const Scope scope(enabled_ ? this : nullptr, name, layer);
    return std::forward<F>(body)();
  }

  /// Duration of the first recorded span called `name` (0 when absent).
  double duration(const std::string& name) const {
    for (const Span& s : spans_)
      if (s.name == name) return s.end_s - s.start_s;
    return 0;
  }

  /// Median duration of the spans called `name` (0 when absent).
  double median_duration(const std::string& name) const {
    std::vector<double> d;
    for (const Span& s : spans_)
      if (s.name == name) d.push_back(s.end_s - s.start_s);
    if (d.empty()) return 0;
    std::sort(d.begin(), d.end());
    const std::size_t mid = d.size() / 2;
    return d.size() % 2 == 1 ? d[mid] : (d[mid - 1] + d[mid]) / 2;
  }

 private:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const char* layer)
        : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(name, layer);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  int open(const char* name, const char* layer) {
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_s = now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_s = now();
    open_.pop_back();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
