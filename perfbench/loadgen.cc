#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "common.h"
#include "net/http.h"
#include "net/loadgen.h"
#include "obs/json.h"

namespace perfbench {

std::vector<Arrival> PoissonSchedule(double qps, double seconds, uint64_t seed,
                                     const std::function<int32_t()>& pick) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(qps);
  std::vector<Arrival> out;
  double t = gap(rng);
  while (t < seconds) {
    out.push_back(Arrival{static_cast<int64_t>(t * 1e6), pick()});
    t += gap(rng);
  }
  return out;
}

int64_t PhaseResult::Succeeded() const {
  return std::count_if(outcomes.begin(), outcomes.end(),
                       [](const Outcome& o) { return o.status == 200; });
}

double PhaseResult::AchievedQps() const {
  return duration_s > 0.0 ? static_cast<double>(Succeeded()) / duration_s
                          : 0.0;
}

std::vector<double> PhaseResult::LatenciesMs(int64_t begin_us,
                                             int64_t end_us) const {
  std::vector<double> out;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (schedule[i].due_us >= begin_us && schedule[i].due_us < end_us) {
      out.push_back(static_cast<double>(outcomes[i].latency_us) * 1e-3);
    }
  }
  return out;
}

std::vector<double> PhaseResult::LateMs() const {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const Outcome& o : outcomes) {
    out.push_back(static_cast<double>(o.late_us) * 1e-3);
  }
  return out;
}

PhaseResult RunPhase(int port, const std::vector<std::string>& entities,
                     int64_t k, std::vector<Arrival> schedule, int connections,
                     double stop_after_s) {
  using Clock = std::chrono::steady_clock;
  PhaseResult result;
  result.outcomes.resize(schedule.size());
  result.schedule = std::move(schedule);
  const std::vector<Arrival>& arrivals = result.schedule;

  std::atomic<size_t> next{0};
  std::atomic<int64_t> last_done_us{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point stop =
      stop_after_s > 0.0
          ? start + std::chrono::microseconds(
                        static_cast<int64_t>(stop_after_s * 1e6))
          : Clock::time_point::max();
  // Indices are taken in time order, so every arrival taken after `stop`
  // has a higher index than every arrival sent.
  std::atomic<size_t> first_unsent{arrivals.size()};
  std::vector<double> client_cpu(static_cast<size_t>(connections), 0.0);
  auto worker = [&](int c) {
    const double cpu0 = ThreadCpuSeconds();
    crossem::net::HttpClient client("127.0.0.1", port);
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= arrivals.size()) break;
      const Clock::time_point due =
          start + std::chrono::microseconds(arrivals[i].due_us);
      std::this_thread::sleep_until(due);
      if (Clock::now() >= stop) {
        size_t cur = first_unsent.load();
        while (i < cur && !first_unsent.compare_exchange_weak(cur, i)) {
        }
        break;
      }
      crossem::net::HttpRequest request;
      request.method = "POST";
      request.target = "/v1/match";
      request.version = "HTTP/1.1";
      request.headers = {{"Host", "127.0.0.1"},
                         {"Content-Type", "application/json"},
                         {"x-tenant", "bench"}};
      request.body =
          "{\"entity\":" +
          crossem::obs::JsonString(
              entities[static_cast<size_t>(arrivals[i].entity)]) +
          ",\"k\":" + std::to_string(k) + "}";
      const Clock::time_point sent = Clock::now();
      auto response = client.RoundTrip(request, 5 * 1000 * 1000);
      const Clock::time_point done = Clock::now();
      Outcome& o = result.outcomes[i];
      o.late_us =
          std::chrono::duration_cast<std::chrono::microseconds>(sent - due)
              .count();
      o.latency_us =
          std::chrono::duration_cast<std::chrono::microseconds>(done - due)
              .count();
      if (response.ok()) {
        o.status = response.value().status;
        o.body = std::move(response.value().body);
      }
      const int64_t done_us =
          std::chrono::duration_cast<std::chrono::microseconds>(done - start)
              .count();
      int64_t prev = last_done_us.load(std::memory_order_relaxed);
      while (done_us > prev &&
             !last_done_us.compare_exchange_weak(prev, done_us)) {
      }
    }
    client_cpu[static_cast<size_t>(c)] = ThreadCpuSeconds() - cpu0;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) threads.emplace_back(worker, c);
  for (std::thread& t : threads) t.join();
  for (double cpu : client_cpu) result.client_cpu_s += cpu;
  result.outcomes.resize(first_unsent.load());
  result.schedule.resize(first_unsent.load());
  result.duration_s = static_cast<double>(last_done_us.load()) * 1e-6;
  return result;
}

}  // namespace perfbench
