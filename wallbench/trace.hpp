#pragma once
/// \file trace.hpp
/// \brief In-memory span tracer of the wall-clock benchmark.
///
/// Spans are recorded only by the benchmark itself, around its calls
/// into the library's public functions; nothing under src/ is
/// instrumented. One Tracer per simulated rank (rank threads never share
/// one). Spans stay in memory and are aggregated after the run.

#include <chrono>
#include <string>
#include <vector>

namespace wallbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    int iter = -1;    ///< loop iteration the span belongs to (-1: setup)
    double t0 = 0.0, t1 = 0.0;
    double wall() const { return t1 - t0; }
  };

  class Scope {
   public:
    Scope(Tracer& tr, std::string name) : tr_(tr) {
      idx_ = tr_.open(std::move(name));
    }
    ~Scope() { tr_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tr_;
    int idx_;
  };

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }

  /// Iteration tag stamped on spans opened from now on.
  void set_iter(int iter) { iter_ = iter; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total wall of the spans called `name` in iteration `iter`.
  double sum(const std::string& name, int iter) const {
    double s = 0.0;
    for (const Span& sp : spans_)
      if (sp.iter == iter && sp.name == name) s += sp.wall();
    return s;
  }

  /// Share of span `name`'s wall in iteration `iter` that its direct
  /// children cover (1 - root self time / root wall).
  double child_coverage(const std::string& name, int iter) const {
    double covered = 0.0, total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      if (sp.iter != iter || sp.name != name) continue;
      total += sp.wall();
      for (const Span& c : spans_)
        if (c.parent == static_cast<int>(i)) covered += c.wall();
    }
    return total > 0.0 ? covered / total : 0.0;
  }

 private:
  int open(std::string name) {
    Span sp;
    sp.name = std::move(name);
    sp.parent = stack_.empty() ? -1 : stack_.back();
    sp.iter = iter_;
    sp.t0 = now_s();
    spans_.push_back(std::move(sp));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    spans_[idx].t1 = now_s();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
  int iter_ = -1;
};

}  // namespace wallbench
