// In-memory spans recorded around the benchmark's calls into each library
// layer. Tracing is off unless set_tracing(true) ran; a disabled span
// costs one relaxed atomic load. Spans go to thread-local buffers (pool
// workers record their own) and are merged by thread index at the end of
// the run, then written as Chrome trace-event JSON (Perfetto opens it).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

struct Span {
  std::string layer;  // library module: nn, vitbit, serve, sim, ...
  std::string name;   // the public call, e.g. "vitbit.time_inference"
  std::string label;  // op detail, e.g. "vit-b/VitBit/p2" (may be empty)
  double start_us = 0.0;  // steady clock, from the process epoch
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 for a root span
  std::uint64_t op = 0;      // shared by every span of one op
  int thread = 0;            // index in first-record order

  double seconds() const { return (end_us - start_us) * 1e-6; }
};

void set_tracing(bool on);
bool tracing();

// Microseconds since the process epoch (the first call).
double now_us();

// Records one span over its lifetime. The parent and op default to the
// innermost open span on this thread; a span opened with no open parent
// starts a new op unless `op` is given. Pool tasks pass `op` explicitly,
// since a worker thread has no view of the caller's open spans.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name, std::string label = {},
             std::uint64_t op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

// A fresh op id, for ops whose spans open on several threads.
std::uint64_t new_op_id();

// Every span recorded so far, ordered by (thread index, start).
std::vector<Span> collect_spans();

// Self time of each span: its duration minus the union of its children's
// intervals (the part of it no child covers). Indexed like `spans`.
std::vector<double> self_seconds(const std::vector<Span>& spans);

// Well-formedness of the span tree: every child lies inside its parent's
// interval and no self time is negative. Returns a description of the
// first violation, empty when the tree is sound.
std::string check_span_tree(const std::vector<Span>& spans,
                            const std::vector<double>& self_s);

// Fraction of [t0_us, t1_us] covered by the union of root spans.
double root_coverage(const std::vector<Span>& spans, double t0_us,
                     double t1_us);

// Sum of self time per layer.
std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans, const std::vector<double>& self_s);

// Writes {"traceEvents": [...]} with one complete ("X") event per span;
// throws std::runtime_error when the file cannot be written.
void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace bench
