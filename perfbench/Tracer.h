//===- perfbench/Tracer.h - Spans and counts around layer calls -*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's span recorder. Spans are opened by the benchmark's own
/// replay code around calls into one layer's public functions; nothing in
/// src/ is instrumented. Each span keeps its name, start, end and parent
/// span in memory; per-layer totals, self times (duration minus the part
/// covered by child spans) and the attributed share of wall time are
/// derived when the run ends. A disabled tracer records nothing, so the
/// same replay code also gives the untraced reference time.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PERFBENCH_TRACER_H
#define CSSPGO_PERFBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
public:
  static constexpr uint32_t NoParent = UINT32_MAX;

  struct Span {
    const char *Name = nullptr;
    uint32_t Parent = NoParent;
    double Start = 0;
    double End = 0;
  };

  struct Layer {
    double Total = 0; ///< Sum of span durations.
    double Self = 0;  ///< Total minus time covered by child spans.
    uint64_t Calls = 0;
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// RAII span around one call into a layer. \p Name must outlive the
  /// tracer (the benchmark passes string literals).
  class Scope {
  public:
    Scope(Tracer &T, const char *Name) : T(T) {
      if (!T.Enabled)
        return;
      Index = static_cast<uint32_t>(T.Spans.size());
      T.Spans.push_back({Name, T.Open, nowSeconds(), 0});
      T.Open = Index;
    }
    ~Scope() {
      if (!T.Enabled)
        return;
      Span &S = T.Spans[Index];
      S.End = nowSeconds();
      T.Open = S.Parent;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    uint32_t Index = NoParent;
  };

  /// Adds \p V to the counter \p Name (work done at a layer boundary).
  void count(const char *Name, double V) {
    if (Enabled)
      Counts[Name] += V;
  }

  /// Per-layer aggregates over every recorded span.
  std::map<std::string, Layer> layers() const {
    std::vector<double> ChildTime(Spans.size(), 0.0);
    for (size_t I = Spans.size(); I-- > 0;) {
      const Span &S = Spans[I];
      if (S.Parent != NoParent)
        ChildTime[S.Parent] += S.End - S.Start;
    }
    std::map<std::string, Layer> Out;
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      Layer &L = Out[S.Name];
      L.Total += S.End - S.Start;
      L.Self += S.End - S.Start - ChildTime[I];
      ++L.Calls;
    }
    return Out;
  }

  /// Wall time covered by top-level spans (every other span nests inside
  /// one of them, so this is the time the spans attribute to a layer).
  double attributedSeconds() const {
    double Sum = 0;
    for (const Span &S : Spans)
      if (S.Parent == NoParent)
        Sum += S.End - S.Start;
    return Sum;
  }

  const std::map<std::string, double> &counts() const { return Counts; }

private:
  bool Enabled;
  uint32_t Open = NoParent;
  std::vector<Span> Spans;
  std::map<std::string, double> Counts;
};

} // namespace perfbench

#endif // CSSPGO_PERFBENCH_TRACER_H
