// The benchmark's open-loop load generator over net::HttpClient.
//
// The arrival schedule is drawn up front from the workload seed
// (Poisson: exponential gaps at the offered rate), so a slow server
// cannot slow the offered load down. A fixed set of keep-alive
// connections, each on its own thread, takes the next due arrival as
// soon as it is free; when every connection is busy the arrival waits,
// and that wait is charged to the request: latency runs from the
// scheduled arrival to the last response byte. How late each request
// left (send time minus scheduled time) is recorded too, so generator
// lag is visible instead of silently lowering the offered rate.
#ifndef CROSSEM_PERFBENCH_LOADGEN_H_
#define CROSSEM_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Arrival {
  int64_t due_us = 0;   // offset from the phase start
  int32_t entity = 0;   // index into the entity list
};

/// Poisson arrivals at `qps` for `seconds`; entity indices drawn by
/// `pick` (called once per arrival, in order).
std::vector<Arrival> PoissonSchedule(double qps, double seconds, uint64_t seed,
                                     const std::function<int32_t()>& pick);

struct Outcome {
  int64_t latency_us = 0;  // scheduled arrival -> response
  int64_t late_us = 0;     // scheduled arrival -> send
  int status = 0;          // HTTP status; 0 = transport error
  std::string body;
};

struct PhaseResult {
  /// CPU time spent by the generator's own connection threads.
  double client_cpu_s = 0.0;
  double duration_s = 0.0;  // first scheduled arrival -> last response
  std::vector<Arrival> schedule;
  std::vector<Outcome> outcomes;  // one per arrival, schedule order

  int64_t sent() const { return static_cast<int64_t>(outcomes.size()); }
  int64_t Succeeded() const;  // HTTP 200
  double AchievedQps() const;
  /// Latencies (ms) of the requests whose arrival falls in
  /// [begin_us, end_us) of the schedule.
  std::vector<double> LatenciesMs(int64_t begin_us, int64_t end_us) const;
  std::vector<double> LateMs() const;
};

/// Drives one phase against 127.0.0.1:`port`: POST /v1/match with body
/// {"entity": entities[a.entity], "k": k} for every arrival. With
/// `stop_after_s` > 0 no request is sent after that many seconds and the
/// unsent tail of the schedule is dropped from the result (a schedule
/// with every arrival due at 0 then makes a closed loop that runs for a
/// fixed time).
PhaseResult RunPhase(int port, const std::vector<std::string>& entities,
                     int64_t k, std::vector<Arrival> schedule, int connections,
                     double stop_after_s = 0.0);

}  // namespace perfbench

#endif  // CROSSEM_PERFBENCH_LOADGEN_H_
