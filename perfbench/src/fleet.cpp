// fleet_edit, untraced: the 150-app home served by an in-process
// `iotsan serve`, edited one threshold at a time — first closed loop
// (capacity), then open loop at a fixed rate (latency).
#include "fleet.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <thread>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/http_client.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace iotsan;

namespace {

constexpr int kBaseThreshold = 40;
const char kHomePath[] = "/v1/deployments/home";

std::string PutBody(const std::vector<int>& thresholds) {
  json::Object doc;
  doc["schema"] = server::kRequestSchema;
  doc["deployment"] = FleetHomeJson(thresholds);
  return json::Value(std::move(doc)).Dump(0);
}

}  // namespace

EditStream::EditStream(std::uint64_t seed)
    : thresholds_(kColdApps, kBaseThreshold) {
  for (int app = 0; app < kColdApps; ++app) {
    for (int threshold = 50; threshold < 150; ++threshold) {
      edits_.push_back({app, threshold});
    }
  }
  Rng rng(seed);
  for (std::size_t i = edits_.size(); i > 1; --i) {
    std::swap(edits_[i - 1], edits_[rng.NextBelow(i)]);
  }
}

std::string EditStream::CurrentBody() {
  std::lock_guard<std::mutex> lock(mutex_);
  return PutBody(thresholds_);
}

std::string EditStream::NextBody() {
  std::lock_guard<std::mutex> lock(mutex_);
  // 14800 distinct edits outlast a run by far at today's ~10 edits/s; a
  // program fast enough to wrap around starts meeting cache hits.
  const Edit edit = edits_[next_++ % edits_.size()];
  thresholds_[static_cast<std::size_t>(edit.app)] = edit.threshold;
  return PutBody(thresholds_);
}

BenchServer::BenchServer(const Args& args, bool with_access_log) {
  static std::atomic<int> next_id{0};
  dir_ = args.work_dir + "/fleet-" + std::to_string(::getpid()) + "-" +
         std::to_string(next_id++);
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  server::ServerConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  config.jobs = 1;  // one checker lane
  config.http_workers = 2;
  config.registry_dir = dir_ + "/registry";
  if (with_access_log) config.access_log_path = access_log();
  server_ = std::make_unique<server::Server>(config);
  server_->Start();
}

BenchServer::~BenchServer() {
  server_->Stop();
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

std::string BenchServer::EditAndCheck(const std::string& body,
                                      std::string* text) {
  const util::HttpResponse put =
      util::HttpCall("127.0.0.1", server_->port(), "PUT", kHomePath, body);
  if (put.status / 100 != 2) {
    return "PUT answered " + std::to_string(put.status);
  }
  const util::HttpResponse check = util::HttpCall(
      "127.0.0.1", server_->port(), "POST", std::string(kHomePath) + "/check");
  if (check.status / 100 != 2) {
    return "check answered " + std::to_string(check.status);
  }
  const std::string report = json::Parse(check.body).GetString("text");
  if (ViolatedIdsFromText(report) != kFleetReference) {
    return "verdict differs from the reference {P06, P10}";
  }
  if (text != nullptr) *text = report;
  return "";
}

void ColdStart(BenchServer& server, EditStream& edits) {
  if (std::string error = server.EditAndCheck(edits.CurrentBody(), nullptr);
      !error.empty()) {
    throw Error("fleet_edit set-up: " + error);
  }
}

OpenLoop RunOpenLoop(BenchServer& server, EditStream& edits, double rate,
                     double seconds, std::uint64_t seed) {
  std::vector<double> due_s;
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    due_s.push_back(t);
  }
  OpenLoop out;
  out.latency_ms.assign(due_s.size(), 0);
  out.late_ms.assign(due_s.size(), 0);
  out.errors.assign(due_s.size(), "");
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();
  auto sender = [&] {
    for (std::size_t k = next++; k < due_s.size(); k = next++) {
      const std::string body = edits.NextBody();
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due_s[k]));
      std::this_thread::sleep_until(due);
      out.late_ms[k] = std::max(0.0, MillisSince(due));
      try {
        out.errors[k] = server.EditAndCheck(body, nullptr);
      } catch (const std::exception& e) {
        out.errors[k] = e.what();
      }
      out.latency_ms[k] = MillisSince(due);
    }
  };
  std::thread a(sender);
  std::thread b(sender);
  a.join();
  b.join();
  return out;
}

RunResult RunFleetEdit(const Args& args) {
  RunResult out;
  if (args.fleet_rate <= 0) throw Error("fleet_edit needs --fleet-rate > 0");
  EditStream edits(args.seed);
  BenchServer server(args, /*with_access_log=*/false);
  ColdStart(server, edits);
  MarkSetupDone();
  if (args.setup_only) return out;

  telemetry::Histogram& group_rate =
      telemetry::Active()->search_hist.group_states_per_second;
  const telemetry::HistogramSnapshot rate_before = group_rate.TakeSnapshot();

  // Closed loop: one caller, next edit as soon as the previous verdict
  // is back.  Capacity = verdicts per second.
  const double closed_s = 0.4 * args.seconds;
  std::uint64_t closed_verdicts = 0;
  const Clock::time_point closed_start = Clock::now();
  while (SecondsSince(closed_start) < closed_s) {
    ++out.attempted;
    std::string error;
    try {
      error = server.EditAndCheck(edits.NextBody(), nullptr);
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (error.empty()) {
      ++closed_verdicts;
    } else {
      out.Fail("fleet closed loop: " + error);
    }
  }
  const double closed_wall = SecondsSince(closed_start);

  // Open loop at the fixed rate: the latency figures.
  const OpenLoop open =
      RunOpenLoop(server, edits, args.fleet_rate, 0.6 * args.seconds,
                  args.seed);
  const telemetry::HistogramSnapshot rate_after = group_rate.TakeSnapshot();
  std::vector<double> latency_ms;
  for (std::size_t k = 0; k < open.errors.size(); ++k) {
    ++out.attempted;
    if (!open.errors[k].empty()) {
      out.Fail("fleet open loop: " + open.errors[k]);
      // A failed request counts as missing every latency limit.
      latency_ms.push_back(std::numeric_limits<double>::infinity());
    } else {
      latency_ms.push_back(open.latency_ms[k]);
    }
  }

  // The last revision's delta report must equal a cold full check of
  // the same deployment through core::RunCheck (the `iotsan check` path).
  ++out.attempted;
  {
    const std::string body = edits.NextBody();
    std::string delta_text;
    std::string error = server.EditAndCheck(body, &delta_text);
    if (error.empty()) {
      core::CheckRequest cold;
      cold.deployment =
          config::ParseDeployment(json::Parse(body).At("deployment"));
      if (WithoutSeconds(core::RunCheck(cold).text) !=
          WithoutSeconds(delta_text)) {
        error = "last delta report differs from a cold full check";
      }
    }
    if (!error.empty()) out.Fail("fleet identity: " + error);
  }

  AddLatencies(out, latency_ms);
  AddMetric(out, "verdicts_per_s", closed_verdicts / closed_wall, "1/s",
            closed_verdicts);
  // Search rate of the groups the edits re-ran (each group's states
  // over its own search time, averaged).
  const std::uint64_t groups = rate_after.count - rate_before.count;
  AddMetric(out, "states_per_s",
            groups > 0 ? static_cast<double>(rate_after.sum - rate_before.sum) /
                             static_cast<double>(groups)
                       : 0,
            "1/s", groups);
  out.info["bench.gen_late_ms_p95"] =
      Metric{Quantile(open.late_ms, 0.95), "ms", open.late_ms.size()};
  out.info["open_loop_rate"] =
      Metric{args.fleet_rate, "1/s", open.errors.size()};
  return out;
}

}  // namespace perfbench
