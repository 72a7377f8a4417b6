#include "bench/parallel_report.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "graph/json.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace crossem {
namespace bench {

namespace {

/// Min-of-repetitions timing: repeats `fn` until ~200ms of samples (at
/// least 3 runs after one warmup) and returns the fastest in ns.
double TimeNs(const std::function<void()>& fn) {
  fn();  // warmup
  double best = -1.0;
  double total = 0.0;
  int reps = 0;
  while ((total < 0.2 || reps < 3) && reps < 50) {
    Timer timer;
    fn();
    const double sec = timer.ElapsedSeconds();
    total += sec;
    ++reps;
    if (best < 0.0 || sec < best) best = sec;
  }
  return best * 1e9;
}

std::string RecordKey(const std::string& op, const std::string& size,
                      int threads) {
  std::ostringstream key;
  key << op << '|' << size << '|' << threads;
  return key.str();
}

graph::JsonValue ToJson(const ParallelBenchRecord& r) {
  std::map<std::string, graph::JsonValue> obj;
  obj["op"] = graph::JsonValue::String(r.op);
  obj["size"] = graph::JsonValue::String(r.size);
  obj["threads"] = graph::JsonValue::Number(r.threads);
  obj["ns_per_iter"] = graph::JsonValue::Number(r.ns_per_iter);
  obj["speedup"] = graph::JsonValue::Number(r.speedup);
  return graph::JsonValue::Object(std::move(obj));
}

}  // namespace

double ParallelReport::Measure(const std::string& op, const std::string& size,
                               int threads, const std::function<void()>& fn,
                               double baseline_ns) {
  SetNumThreads(threads);
  const double ns = TimeNs(fn);
  SetNumThreads(0);
  ParallelBenchRecord rec;
  rec.op = op;
  rec.size = size;
  rec.threads = threads;
  rec.ns_per_iter = ns;
  rec.speedup = baseline_ns > 0.0 ? baseline_ns / ns : 1.0;
  records_.push_back(rec);
  return ns;
}

void ParallelReport::MeasureSweep(const std::string& op,
                                  const std::string& size,
                                  const std::vector<int>& thread_counts,
                                  const std::function<void()>& fn,
                                  double baseline_ns) {
  // Interleaved rounds: time every thread count several times round-robin
  // and keep each count's fastest round. Sequential sweeps on a shared
  // machine otherwise attribute slow drift (thermal, cgroup throttling)
  // to whichever count happened to run last, which reads as a phantom
  // scaling regression.
  constexpr int kRounds = 7;
  const size_t counts = thread_counts.size();
  std::vector<std::vector<double>> samples(counts);
  std::vector<double> best(counts, -1.0);
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < counts; ++i) {
      SetNumThreads(thread_counts[i]);
      const double ns = TimeNs(fn);
      samples[i].push_back(ns);
      if (best[i] < 0.0 || ns < best[i]) best[i] = ns;
    }
  }
  SetNumThreads(0);
  for (size_t i = 0; i < counts; ++i) {
    ParallelBenchRecord rec;
    rec.op = op;
    rec.size = size;
    rec.threads = thread_counts[i];
    rec.ns_per_iter = best[i];
    if (baseline_ns > 0.0) {
      // External baseline (e.g. the seed scalar kernel): plain ratio.
      rec.speedup = baseline_ns / best[i];
    } else if (i == 0) {
      rec.speedup = 1.0;  // first count anchors the speedups
    } else {
      // Self-anchored sweep: pair each round's timing with the SAME
      // round's anchor timing so shared-machine drift cancels, then keep
      // the best round — the ratio analogue of the min-time convention.
      // Comparing global minima instead would bias every non-anchor count
      // to <= 1.0: with identical true speed the anchor's global floor
      // can only be tied, never beaten.
      double ratio = -1.0;
      for (int r = 0; r < kRounds; ++r) {
        ratio = std::max(ratio, samples[0][r] / samples[i][r]);
      }
      rec.speedup = ratio;
    }
    records_.push_back(rec);
  }
}

bool ParallelReport::WriteJson(const std::string& path) const {
  // Load existing records so repeated bench runs merge rather than clobber.
  std::map<std::string, graph::JsonValue> merged;  // key -> record object
  std::vector<std::string> order;
  std::ifstream in(path);
  if (in) {
    std::stringstream buf;
    buf << in.rdbuf();
    auto parsed = graph::ParseJson(buf.str());
    if (parsed.ok() && parsed.value().is_object()) {
      const graph::JsonValue* recs = parsed.value().Find("records");
      if (recs != nullptr && recs->is_array()) {
        for (const graph::JsonValue& r : recs->array_items()) {
          const graph::JsonValue* op = r.Find("op");
          const graph::JsonValue* size = r.Find("size");
          const graph::JsonValue* threads = r.Find("threads");
          if (!op || !size || !threads) continue;
          const std::string key =
              RecordKey(op->string_value(), size->string_value(),
                        static_cast<int>(threads->number_value()));
          if (merged.emplace(key, r).second) order.push_back(key);
        }
      }
    }
  }
  for (const ParallelBenchRecord& r : records_) {
    const std::string key = RecordKey(r.op, r.size, r.threads);
    if (merged.find(key) == merged.end()) order.push_back(key);
    merged[key] = ToJson(r);
  }

  std::vector<graph::JsonValue> array;
  array.reserve(order.size());
  for (const std::string& key : order) array.push_back(merged.at(key));
  std::map<std::string, graph::JsonValue> doc;
  doc["records"] = graph::JsonValue::Array(std::move(array));

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    CROSSEM_LOG(Error) << "cannot write " << path;
    return false;
  }
  out << graph::JsonValue::Object(std::move(doc)).Dump() << "\n";
  return static_cast<bool>(out);
}

std::string ReportPathFromEnv(const char* env_var, const char* fallback) {
  if (const char* env = std::getenv(env_var)) return env;
  return fallback;
}

std::string ParallelReportPath() {
  return ReportPathFromEnv("CROSSEM_BENCH_JSON", "BENCH_parallel.json");
}

std::string FusedReportPath() {
  return ReportPathFromEnv("CROSSEM_BENCH_FUSED_JSON", "BENCH_fused.json");
}

}  // namespace bench
}  // namespace crossem
