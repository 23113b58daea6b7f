#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "json_lite.h"

namespace bench {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint64_t> g_next_op{1};

struct OpenSpan {
  std::uint64_t id = 0;
  std::uint64_t op = 0;
};

// Written only by its own thread; read by collect_spans() after every
// pool task has joined.
struct ThreadBuffer {
  int index = 0;
  std::vector<Span> spans;
  std::vector<OpenSpan> open;
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // by thread index

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->index = static_cast<int>(g_buffers.size()) - 1;
  }
  return *buffer;
}

// Tolerance for clock-read ordering between a parent and its children.
constexpr double kEpsUs = 1e-3;

// Length of the union of [lo, hi) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, lo = 0.0, hi = 0.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (open && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (open) total += hi - lo;
    lo = a;
    hi = b;
    open = true;
  }
  if (open) total += hi - lo;
  return total;
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint64_t new_op_id() { return g_next_op.fetch_add(1); }

ScopedSpan::ScopedSpan(const char* layer, const char* name, std::string label,
                       std::uint64_t op) {
  if (!tracing()) return;
  active_ = true;
  ThreadBuffer& buf = thread_buffer();
  span_.layer = layer;
  span_.name = name;
  span_.label = std::move(label);
  span_.thread = buf.index;
  span_.id = g_next_span.fetch_add(1);
  if (!buf.open.empty()) {
    span_.parent = buf.open.back().id;
    span_.op = op != 0 ? op : buf.open.back().op;
  } else {
    span_.op = op != 0 ? op : new_op_id();
  }
  buf.open.push_back({span_.id, span_.op});
  span_.start_us = now_us();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_us = now_us();
  ThreadBuffer& buf = thread_buffer();
  buf.open.pop_back();
  buf.spans.push_back(std::move(span_));
}

std::vector<Span> collect_spans() {
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> out;
  for (const auto& buf : g_buffers) {
    std::vector<Span> spans = buf->spans;
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start_us < b.start_us;
    });
    out.insert(out.end(), spans.begin(), spans.end());
  }
  return out;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    children[it->second].emplace_back(std::max(s.start_us, p.start_us),
                                      std::min(s.end_us, p.end_us));
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].seconds() - union_length(children[i]) * 1e-6;
  return self;
}

std::string check_span_tree(const std::vector<Span>& spans,
                            const std::vector<double>& self_s) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_us < s.start_us) return s.name + " ends before it starts";
    if (self_s[i] < -kEpsUs * 1e-6) return s.name + " has negative self time";
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) return s.name + " has an unrecorded parent";
    const Span& p = spans[it->second];
    if (s.start_us < p.start_us - kEpsUs || s.end_us > p.end_us + kEpsUs)
      return s.name + " lies outside its parent " + p.name;
  }
  return {};
}

double root_coverage(const std::vector<Span>& spans, double t0_us,
                     double t1_us) {
  if (t1_us <= t0_us) return 0.0;
  std::vector<std::pair<double, double>> roots;
  for (const auto& s : spans)
    if (s.parent == 0)
      roots.emplace_back(std::max(s.start_us, t0_us),
                         std::min(s.end_us, t1_us));
  return union_length(std::move(roots)) / (t1_us - t0_us);
}

std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans, const std::vector<double>& self_s) {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].layer] += self_s[i];
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char num[64];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": " << json_quote(s.name)
        << ", \"cat\": " << json_quote(s.layer) << ", \"ph\": \"X\"";
    std::snprintf(num, sizeof num, "%.3f", s.start_us);
    out << ", \"ts\": " << num;
    std::snprintf(num, sizeof num, "%.3f", s.end_us - s.start_us);
    out << ", \"dur\": " << num << ", \"pid\": 1, \"tid\": " << s.thread
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << ", \"label\": " << json_quote(s.label)
        << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace " + path);
}

}  // namespace bench
