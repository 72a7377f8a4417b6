#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <unordered_map>

#include "obs/trace.h"

namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

CpuTicks ReadCpuTicks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  int64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> label;
  for (int64_t& x : v) in >> x;
  return CpuTicks{v[0] + v[1] + v[2] + v[5] + v[6], v[7]};
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  const double steal = static_cast<double>(to.steal - from.steal);
  const double busy = static_cast<double>(to.busy - from.busy);
  return busy + steal > 0.0 ? steal / (busy + steal) : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
  std::printf("metric %-34s %14.6f %s\n", name.c_str(), value, unit.c_str());
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (!ok) {
    correct_ = false;
    ++failed_;
  }
  std::printf("check  %-34s %s  %s\n", name.c_str(), ok ? "ok  " : "FAIL",
              detail.c_str());
}

void Report::PrintJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<int64_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g",
                  std::isfinite(v.value) ? v.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + v.unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

namespace {

// Length of the union of [b, e) intervals clipped to [lo, hi).
double CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> iv, uint64_t lo,
                 uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  uint64_t cur_b = 0, cur_e = 0;
  bool open = false;
  for (auto [b, e] : iv) {
    b = std::max(b, lo);
    e = std::min(e, hi);
    if (e <= b) continue;
    if (open && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) covered += static_cast<double>(cur_e - cur_b);
    cur_b = b;
    cur_e = e;
    open = true;
  }
  if (open) covered += static_cast<double>(cur_e - cur_b);
  return covered;
}

double IntArg(const crossem::obs::SpanRecord& s, const char* key) {
  for (const auto& a : s.args) {
    if (std::string(a.key) == key) return static_cast<double>(a.int_value);
  }
  return 0.0;
}

}  // namespace

std::map<std::string, SpanTotals> AggregateSpans() {
  using crossem::obs::SpanRecord;
  const std::vector<SpanRecord> spans = crossem::obs::CollectSpans();
  std::map<std::string, SpanTotals> out;
  std::vector<double> child_ns(spans.size(), 0.0);

  // Process spans: per thread, a span's children are the spans that start
  // inside it and nest directly below it (same-thread spans never overlap
  // partially), so direct children's durations sum to their union.
  std::unordered_map<uint64_t, std::vector<size_t>> by_thread;
  // Request spans: children by recorded parent id.
  std::unordered_map<uint64_t, size_t> by_span_id;
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children_of;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].span_id == 0) {
      by_thread[spans[i].thread_id].push_back(i);
    } else {
      by_span_id[spans[i].span_id] = i;
    }
  }
  for (auto& [tid, idx] : by_thread) {
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      if (spans[a].start_ns != spans[b].start_ns) {
        return spans[a].start_ns < spans[b].start_ns;
      }
      return spans[a].duration_ns > spans[b].duration_ns;
    });
    std::vector<size_t> stack;
    for (size_t i : idx) {
      const uint64_t start = spans[i].start_ns;
      while (!stack.empty() && spans[stack.back()].start_ns +
                                       spans[stack.back()].duration_ns <=
                                   start) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        child_ns[stack.back()] += static_cast<double>(spans[i].duration_ns);
      }
      stack.push_back(i);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].span_id != 0 && spans[i].parent_span_id != 0) {
      children_of[spans[i].parent_span_id].push_back(
          {spans[i].start_ns, spans[i].start_ns + spans[i].duration_ns});
    }
  }
  for (auto& [parent, iv] : children_of) {
    auto it = by_span_id.find(parent);
    if (it == by_span_id.end()) continue;
    const SpanRecord& p = spans[it->second];
    child_ns[it->second] =
        CoveredNs(std::move(iv), p.start_ns, p.start_ns + p.duration_ns);
  }

  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    SpanTotals& t = out[s.name];
    const double dur = static_cast<double>(s.duration_ns);
    ++t.count;
    t.total_s += dur * 1e-9;
    t.self_s += std::max(0.0, dur - child_ns[i]) * 1e-9;
    if (std::string(s.name) == "gemm") {
      t.flops += 2.0 * IntArg(s, "m") * IntArg(s, "n") * IntArg(s, "k");
    }
  }
  return out;
}

}  // namespace perfbench
