#include "server/handlers.hpp"

#include <cstdio>
#include <limits>
#include <optional>
#include <string_view>

#include "checker/checker.hpp"
#include "cluster/cluster.hpp"
#include "config/deployment.hpp"
#include "corpus/corpus.hpp"
#include "props/loader.hpp"
#include "registry/fleet.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"
#include "util/build_info.hpp"
#include "util/thread_pool.hpp"

namespace iotsan::server {

namespace {

json::Value ParseBodyJson(const std::string& body) {
  try {
    return json::Parse(body);
  } catch (const Error& e) {
    throw RequestError(400, kErrBadJson,
                       std::string("request body is not valid JSON: ") +
                           e.what());
  }
}

/// Top-level validation shared by both POST endpoints: JSON object with
/// the supported schema tag and a deployment object.
const json::Value& ValidateEnvelope(const json::Value& doc) {
  if (!doc.is_object()) {
    throw RequestError(400, kErrBadSchema,
                       "request body must be a JSON object");
  }
  if (!doc.Has("schema") || !doc.At("schema").is_string()) {
    throw RequestError(400, kErrBadSchema,
                       std::string("missing request schema tag; expected "
                                   "\"schema\": \"") +
                           kRequestSchema + "\"");
  }
  if (doc.At("schema").AsString() != kRequestSchema) {
    throw RequestError(400, kErrBadSchema,
                       "unsupported request schema '" +
                           doc.At("schema").AsString() + "' (this server "
                           "speaks " + kRequestSchema + ")");
  }
  if (!doc.Has("deployment") || !doc.At("deployment").is_object()) {
    throw RequestError(400, kErrBadSchema,
                       "request needs a \"deployment\" object (the same "
                       "document `iotsan check` reads from a file)");
  }
  return doc.At("deployment");
}

long long RequireInt(const json::Value& value, const char* key,
                     long long min, long long max) {
  if (!value.is_number()) {
    throw RequestError(400, kErrBadRequest,
                       std::string("option \"") + key + "\" must be an "
                       "integer");
  }
  const std::int64_t n = value.AsInt();
  if (n < min || n > max) {
    throw RequestError(400, kErrBadRequest,
                       std::string("option \"") + key + "\" wants a value "
                       "in [" + std::to_string(min) + ", " +
                       std::to_string(max) + "], got " + std::to_string(n));
  }
  return n;
}

bool RequireBool(const json::Value& value, const char* key) {
  if (!value.is_bool()) {
    throw RequestError(400, kErrBadRequest,
                       std::string("option \"") + key + "\" must be a "
                       "boolean");
  }
  return value.AsBool();
}

/// Parses the request's "options" object.  Every key is validated
/// against core's request-option table, the one the CLI flags read too;
/// unknown keys are rejected so a typo can never silently fall back to a
/// default.
core::RequestOptions ParseOptions(const json::Value& doc,
                                  ParsedOptionsMeta* meta) {
  core::RequestOptions out;
  if (!doc.Has("options")) return out;
  const json::Value& options = doc.At("options");
  if (!options.is_object()) {
    throw RequestError(400, kErrBadRequest,
                       "\"options\" must be a JSON object");
  }
  for (const auto& [key, value] : options.AsObject()) {
    if (const core::RequestOptionSpec* option =
            core::FindRequestOption(key)) {
      option->set(out, option->integer()
                           ? RequireInt(value, option->json_key, option->min,
                                        option->max)
                           : RequireBool(value, option->json_key));
      // The two options a server fills from its own defaults when a
      // request leaves them out (ApplyServerDefaults).
      if (meta != nullptr) {
        meta->jobs_given |= option->forward == core::Forward::kPoolSize;
        meta->deadline_given |= option->forward == core::Forward::kAlways;
      }
    } else if (key == "groupApps") {
      // Cluster work unit: check exactly this related-set group (app
      // indices into the deployment, as planned by the coordinator).
      if (!value.is_array() || value.AsArray().empty()) {
        throw RequestError(400, kErrBadRequest,
                           "\"groupApps\" must be a non-empty array of "
                           "app indices");
      }
      for (const json::Value& index : value.AsArray()) {
        out.group_apps.push_back(static_cast<std::size_t>(
            RequireInt(index, "groupApps[]", 0, 1 << 20)));
      }
    } else if (key == "branchModulus") {
      out.branch_modulus = static_cast<unsigned>(
          RequireInt(value, "branchModulus", 1, 1 << 16));
    } else if (key == "branchResidue") {
      out.branch_residue = static_cast<unsigned>(
          RequireInt(value, "branchResidue", 0, 1 << 16));
    } else if (key == "bitstateSeed") {
      out.bitstate_seed = static_cast<std::uint64_t>(
          RequireInt(value, "bitstateSeed", 0,
                     std::numeric_limits<long long>::max()));
    } else {
      throw RequestError(400, kErrBadRequest,
                         "unknown option \"" + key + "\"");
    }
  }
  return out;
}

config::Deployment ParseDeploymentOrThrow(const json::Value& doc) {
  try {
    return config::ParseDeployment(doc);
  } catch (const Error& e) {
    throw RequestError(400, kErrBadRequest,
                       std::string("invalid deployment: ") + e.what());
  }
}

std::map<std::string, std::string> ParseInlineSources(
    const json::Value& doc) {
  std::map<std::string, std::string> out;
  if (!doc.Has("appSources")) return out;
  const json::Value& sources = doc.At("appSources");
  if (!sources.is_object()) {
    throw RequestError(400, kErrBadRequest,
                       "\"appSources\" must map app names to inline "
                       "SmartScript source text");
  }
  for (const auto& [name, source] : sources.AsObject()) {
    if (!source.is_string()) {
      throw RequestError(400, kErrBadRequest,
                         "appSources entry \"" + name + "\" must be the "
                         "source text itself (the service never reads "
                         "files)");
    }
    out[name] = source.AsString();
  }
  return out;
}

std::vector<props::Property> ParseInlineProperties(const json::Value& doc) {
  if (!doc.Has("properties")) return {};
  const json::Value& properties = doc.At("properties");
  if (!properties.is_array()) {
    throw RequestError(400, kErrBadRequest,
                       "\"properties\" must be an array of property "
                       "objects");
  }
  try {
    return props::LoadPropertiesJson(properties.Dump(0));
  } catch (const Error& e) {
    throw RequestError(400, kErrBadRequest,
                       std::string("invalid properties: ") + e.what());
  }
}

/// Fills request defaults a resident server owns: worker lanes come
/// from the shared pool unless the request pins them, the deadline from
/// the server config unless the request sets its own.
void ApplyServerDefaults(core::RequestOptions& options,
                         const ParsedOptionsMeta& meta,
                         const ServiceState& state) {
  if (!meta.jobs_given && state.env.pool != nullptr) {
    options.jobs = static_cast<int>(state.env.pool->jobs());
  }
  if (!meta.deadline_given) {
    options.deadline_seconds = state.request_deadline_seconds;
  }
}

json::Object ResponseEnvelope() {
  json::Object doc;
  doc["schema"] = kResponseSchema;
  return doc;
}

HttpResponse JsonResponse(int status, json::Object body) {
  HttpResponse response;
  response.status = status;
  response.body = json::Value(std::move(body)).Dump(0) + "\n";
  return response;
}

/// 405 with the Allow header RFC 9110 requires.
HttpResponse MethodNotAllowed(const std::string& allow,
                              const std::string& path,
                              const std::string& request_id) {
  HttpResponse response =
      ErrorResponse(405, kErrMethod, "use " + allow + " " + path, request_id);
  response.headers.emplace_back("Allow", allow);
  return response;
}

/// Revision tokens travel as strong ETags: `"3"`.
std::string ETagValue(std::uint64_t revision) {
  return "\"" + std::to_string(revision) + "\"";
}

/// An If-Match header pins the revision a check may run against.
/// Accepts the quoted ETag form, a bare integer, or `*` (no pin).
std::optional<std::uint64_t> ParseIfMatch(const HttpRequest& request) {
  const auto it = request.headers.find("if-match");
  if (it == request.headers.end()) return std::nullopt;
  std::string value = it->second;
  if (value == "*") return std::nullopt;
  if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
    value = value.substr(1, value.size() - 2);
  }
  if (value.empty() || value.size() > 20 ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw RequestError(400, kErrBadRequest,
                       "If-Match wants a revision token as served in ETag "
                       "(\"3\"), or *");
  }
  return std::stoull(value);
}

double UptimeSeconds(const ServiceState& state) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       state.start_time)
      .count();
}

void RefreshServerGauges(const ServiceState& state) {
  auto* t = telemetry::Active();
  if (t == nullptr) return;
  if (state.active_connections != nullptr) {
    t->server.active_connections.store(
        state.active_connections->load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  if (state.queue_depth != nullptr) {
    t->server.queue_depth.store(
        state.queue_depth->load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
}

HttpResponse HandleHealth(const ServiceState& state,
                          const std::string& request_id) {
  const build::BuildInfo& info = build::GetBuildInfo();
  json::Object doc;
  doc["status"] = state.draining != nullptr &&
                          state.draining->load(std::memory_order_relaxed)
                      ? "draining"
                      : "ok";
  doc["version"] = info.version;
  json::Object build_obj;
  build_obj["compiler"] = info.compiler;
  build_obj["build_type"] = info.build_type;
  build_obj["standard"] = info.standard;
  doc["build"] = std::move(build_obj);
  doc["uptime_seconds"] = UptimeSeconds(state);
  if (state.active_connections != nullptr) {
    doc["active_connections"] = static_cast<std::int64_t>(
        state.active_connections->load(std::memory_order_relaxed));
  }
  if (state.queue_depth != nullptr) {
    doc["queue_depth"] = static_cast<std::int64_t>(
        state.queue_depth->load(std::memory_order_relaxed));
  }
  if (state.inflight != nullptr) {
    doc["inflight_requests"] =
        static_cast<std::int64_t>(state.inflight->size());
  }
  if (state.events != nullptr) {
    doc["event_subscribers"] =
        static_cast<std::int64_t>(state.events->subscriber_count());
  }
  doc["request_id"] = request_id;
  return JsonResponse(200, std::move(doc));
}

/// `GET /v1/status`: the live in-flight snapshot `iotsan top` polls —
/// one object per running verification with monotonically advancing
/// groups_done, cumulative states, the latest group's store footprint,
/// and elapsed time against the request deadline.
HttpResponse HandleStatus(const ServiceState& state,
                          const std::string& request_id) {
  if (auto* t = telemetry::Active()) telemetry::SamplePeakRss(*t);
  json::Object doc;
  doc["schema"] = "iotsan.status/1";
  doc["status"] = state.draining != nullptr &&
                          state.draining->load(std::memory_order_relaxed)
                      ? "draining"
                      : "ok";
  doc["uptime_seconds"] = UptimeSeconds(state);
  if (state.active_connections != nullptr) {
    doc["active_connections"] = static_cast<std::int64_t>(
        state.active_connections->load(std::memory_order_relaxed));
  }
  if (state.queue_depth != nullptr) {
    doc["queue_depth"] = static_cast<std::int64_t>(
        state.queue_depth->load(std::memory_order_relaxed));
  }
  doc["peak_rss_bytes"] =
      static_cast<std::int64_t>(telemetry::ReadPeakRssBytes());
  doc["inflight"] = state.inflight != nullptr ? state.inflight->Snapshot()
                                              : json::Array();
  if (state.coordinator != nullptr) {
    // One row per configured worker: health from the last probe plus
    // dispatch accounting (docs/cluster.md).
    json::Array workers;
    for (const cluster::WorkerStatus& status :
         state.coordinator->WorkerRows()) {
      json::Object row;
      row["endpoint"] = status.endpoint;
      row["healthy"] = status.healthy;
      row["units_done"] = static_cast<std::int64_t>(status.units_done);
      row["units_failed"] = static_cast<std::int64_t>(status.units_failed);
      row["retries"] = static_cast<std::int64_t>(status.retries);
      row["last_latency_ms"] = status.last_latency_ms;
      if (!status.last_error.empty()) row["last_error"] = status.last_error;
      workers.push_back(json::Value(std::move(row)));
    }
    json::Object cluster_obj;
    cluster_obj["workers"] = std::move(workers);
    doc["cluster"] = std::move(cluster_obj);
  }
  doc["request_id"] = request_id;
  return JsonResponse(200, std::move(doc));
}

/// A metrics request asks for Prometheus exposition either explicitly
/// (`?format=prometheus`) or via an Accept header naming text/plain;
/// everything else gets the iotsan.metrics/1 JSON document.
bool WantsPrometheus(const HttpRequest& request) {
  const std::size_t query = request.target.find('?');
  if (query != std::string::npos) {
    const std::string params = request.target.substr(query + 1);
    std::size_t pos = 0;
    while (pos <= params.size()) {
      const std::size_t amp = params.find('&', pos);
      const std::string param =
          params.substr(pos, amp == std::string::npos ? amp : amp - pos);
      if (param == "format=prometheus") return true;
      if (amp == std::string::npos) break;
      pos = amp + 1;
    }
  }
  const auto accept = request.headers.find("accept");
  return accept != request.headers.end() &&
         accept->second.find("text/plain") != std::string::npos;
}

HttpResponse HandleMetrics(const HttpRequest& request,
                           const ServiceState& state) {
  RefreshServerGauges(state);
  if (WantsPrometheus(request)) {
    HttpResponse response;
    response.status = 200;
    response.content_type = telemetry::kPrometheusContentType;
    if (auto* t = telemetry::Active()) {
      response.body = telemetry::RenderPrometheus(*t);
    }
    return response;
  }
  // The JSON document stays byte-compatible with iotsan.metrics/1, so
  // no request_id is injected here.
  json::Object doc;
  doc["schema"] = "iotsan.metrics/1";
  doc["uptime_seconds"] = UptimeSeconds(state);
  if (auto* t = telemetry::Active()) {
    doc["counters"] = t->ToJson();
  } else {
    doc["counters"] = json::Object();
  }
  return JsonResponse(200, std::move(doc));
}

HttpResponse HandleVersion(const std::string& request_id) {
  const build::BuildInfo& info = build::GetBuildInfo();
  json::Object doc;
  doc["version"] = info.version;
  doc["compiler"] = info.compiler;
  doc["build_type"] = info.build_type;
  doc["standard"] = info.standard;
  doc["line"] = build::VersionLine();
  doc["request_id"] = request_id;
  return JsonResponse(200, std::move(doc));
}

/// Unregisters an in-flight entry when the request leaves scope, so a
/// throwing handler can never leak a forever-"running" row in
/// /v1/status.
class InflightGuard {
 public:
  InflightGuard(InflightTable* table, std::string request_id)
      : table_(table), request_id_(std::move(request_id)) {}
  ~InflightGuard() {
    if (table_ != nullptr) table_->Finish(request_id_);
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  InflightTable* table_;
  std::string request_id_;
};

/// Streams per-group progress into the /v1/status in-flight table and
/// the SSE broker; shared by /v1/check and the fleet check endpoint.
void WireProgressEvents(core::ServiceEnv& env, const ServiceState& state,
                        const std::string& request_id) {
  if (state.inflight == nullptr && state.events == nullptr) return;
  InflightTable* inflight = state.inflight;
  EventBroker* events = state.events;
  env.on_group_progress = [inflight, events, request_id](
                              const telemetry::GroupProgress& progress) {
    if (inflight != nullptr) inflight->Update(request_id, progress);
    if (events != nullptr && events->subscriber_count() > 0) {
      json::Object data;
      data["request_id"] = request_id;
      data["groups_total"] =
          static_cast<std::int64_t>(progress.groups_total);
      data["groups_done"] =
          static_cast<std::int64_t>(progress.groups_done);
      data["states_explored"] =
          static_cast<std::int64_t>(progress.states_explored);
      data["store_memory_bytes"] =
          static_cast<std::int64_t>(progress.store_memory_bytes);
      data["group_seconds"] = progress.seconds;
      events->Publish(
          {"progress", json::Value(std::move(data)).Dump(0)});
    }
  };
}

HttpResponse HandleCheck(const HttpRequest& request,
                         const ServiceState& state,
                         const std::string& request_id) {
  ParsedOptionsMeta meta;
  core::CheckRequest check = ParseCheckRequest(request.body, &meta);
  ApplyServerDefaults(check.options, meta, state);
  // Per-request env copy: the shared env serves every request, the id
  // belongs to this one.  It flows into CheckOptions::request_id and
  // from there into spans and artifact manifests.
  core::ServiceEnv env = state.env;
  env.request_id = request_id;

  // Cluster work unit (options.groupApps): a coordinator planned this
  // related-set group — possibly one branch shard or swarm lane of it —
  // and wants the raw CheckResult back, not a rendered report.  This is
  // the worker half of the protocol, so it never re-enters the
  // coordinator even when this node is one.
  if (!check.options.group_apps.empty()) {
    checker::CheckResult unit;
    try {
      unit = core::RunCheckUnit(check, env);
    } catch (const Error& e) {
      throw RequestError(400, kErrBadRequest, e.what());
    }
    if (auto* t = telemetry::Active()) ++t->server.checks;
    json::Object doc = ResponseEnvelope();
    doc["unit"] = checker::CheckResultToJson(unit);
    doc["request_id"] = request_id;
    return JsonResponse(200, std::move(doc));
  }

  // Live introspection: register the request in the /v1/status table and
  // stream per-group progress to it (and to any SSE subscriber).  The
  // callback fires from whichever pool thread finished a group;
  // InflightTable and EventBroker are thread-safe.
  const std::string fingerprint =
      config::DeploymentFingerprintHex(check.deployment);
  if (state.inflight != nullptr) {
    InflightEntry entry;
    entry.request_id = request_id;
    entry.endpoint = "check";
    entry.deployment = check.deployment.name;
    entry.fingerprint = fingerprint;
    entry.deadline_seconds = check.options.deadline_seconds;
    entry.started = std::chrono::steady_clock::now();
    state.inflight->Register(entry);
  }
  InflightGuard inflight_guard(state.inflight, request_id);
  WireProgressEvents(env, state, request_id);

  // Coordinator mode: plan work units and dispatch them to the worker
  // fleet; the merged response is byte-identical to a local run (see
  // src/cluster).  Standalone nodes run the check in-process.
  cluster::ClusterOutcome cluster_outcome;
  const bool coordinated = state.coordinator != nullptr;
  if (coordinated) {
    cluster_outcome = state.coordinator->Check(check, env);
  }
  core::CheckResponse result = coordinated
                                   ? std::move(cluster_outcome.response)
                                   : core::RunCheck(check, env);
  if (state.events != nullptr && state.events->subscriber_count() > 0) {
    json::Object data;
    data["request_id"] = request_id;
    data["verdict"] =
        result.report.violations.empty() ? "clean" : "violations";
    data["exit_code"] = result.exit_code;
    data["violations"] =
        static_cast<std::int64_t>(result.report.violations.size());
    data["related_sets"] =
        static_cast<std::int64_t>(result.report.related_set_count);
    data["states_explored"] =
        static_cast<std::int64_t>(result.report.states_explored);
    data["seconds"] = result.report.seconds;
    data["completed"] = result.report.completed;
    state.events->Publish(
        {"verdict", json::Value(std::move(data)).Dump(0)});
  }
  if (auto* t = telemetry::Active()) {
    ++t->server.checks;
    if (!result.report.completed && check.options.deadline_seconds > 0) {
      ++t->server.deadline_hits;
    }
  }
  json::Object doc = ResponseEnvelope();
  doc["verdict"] =
      result.report.violations.empty() ? "clean" : "violations";
  doc["exit_code"] = result.exit_code;
  doc["text"] = result.text;
  doc["report"] = core::CheckReportToJson(check.deployment, result.report);
  if (!result.report.violations.empty()) {
    // Full replayable artifacts, manifest stamped with this request's
    // id — the same bundles `iotsan check --artifacts-dir` writes.
    const checker::CheckOptions effective =
        core::MakeCheckOptions(check.options, env).check;
    json::Array artifacts;
    for (const checker::Violation& violation : result.report.violations) {
      artifacts.push_back(checker::ToJson(checker::MakeArtifact(
          violation, effective, check.deployment.name, fingerprint)));
    }
    doc["artifacts"] = std::move(artifacts);
  }
  if (coordinated) {
    json::Object cluster_obj;
    cluster_obj["units_total"] =
        static_cast<std::int64_t>(cluster_outcome.units_total);
    cluster_obj["units_remote"] =
        static_cast<std::int64_t>(cluster_outcome.units_remote);
    cluster_obj["units_local"] =
        static_cast<std::int64_t>(cluster_outcome.units_local);
    cluster_obj["units_redispatched"] =
        static_cast<std::int64_t>(cluster_outcome.units_redispatched);
    cluster_obj["degraded_local"] = cluster_outcome.degraded_local;
    doc["cluster"] = std::move(cluster_obj);
  }
  doc["request_id"] = request_id;
  return JsonResponse(200, std::move(doc));
}

HttpResponse HandleAttribute(const HttpRequest& request,
                             const ServiceState& state,
                             const std::string& request_id) {
  ParsedOptionsMeta meta;
  core::AttributeRequest attribute =
      ParseAttributeRequest(request.body, &meta);
  ApplyServerDefaults(attribute.options, meta, state);
  core::ServiceEnv env = state.env;
  env.request_id = request_id;
  core::AttributeResponse result = core::RunAttribute(attribute, env);
  if (auto* t = telemetry::Active()) ++t->server.attributions;
  json::Object doc = ResponseEnvelope();
  doc["verdict"] = std::string(attrib::VerdictName(result.result.verdict));
  doc["exit_code"] = result.exit_code;
  doc["text"] = result.text;
  doc["report"] = core::AttributionToJson(result.app_name, result.result);
  doc["request_id"] = request_id;
  return JsonResponse(200, std::move(doc));
}

// ---- fleet registry (docs/fleet.md) ------------------------------------------

/// `GET /v1/deployments`: one status row per stored deployment.
HttpResponse HandleDeploymentList(const ServiceState& state,
                                  const std::string& request_id) {
  json::Object doc;
  doc["schema"] = "iotsan.deployments/1";
  json::Array rows;
  for (const registry::Fleet::Status& status : state.registry->List()) {
    json::Object row;
    row["id"] = status.id;
    row["revision"] = static_cast<std::int64_t>(status.revision);
    row["checked_revision"] =
        static_cast<std::int64_t>(status.checked_revision);
    row["verdict"] = status.verdict;
    row["groups_total"] = static_cast<std::int64_t>(status.groups_total);
    row["groups_recomputed"] =
        static_cast<std::int64_t>(status.groups_recomputed);
    row["check_seconds"] = status.check_seconds;
    rows.push_back(json::Value(std::move(row)));
  }
  doc["deployments"] = std::move(rows);
  doc["request_id"] = request_id;
  return JsonResponse(200, std::move(doc));
}

/// `PUT /v1/deployments/{id}`: upsert from the same iotsan.request/1
/// envelope POST /v1/check reads (an "options" key is ignored — options
/// belong to check requests).  201 on create, 200 on update; the new
/// revision travels in ETag and the body.
HttpResponse HandleDeploymentPut(const HttpRequest& request,
                                 const ServiceState& state,
                                 const std::string& request_id,
                                 const std::string& id) {
  const json::Value doc = ParseBodyJson(request.body);
  const json::Value& deployment_json = ValidateEnvelope(doc);
  registry::StoredDeployment stored;
  stored.id = id;
  stored.deployment = ParseDeploymentOrThrow(deployment_json);
  stored.app_sources = ParseInlineSources(doc);
  // Validate inline properties now so a bad PUT fails fast, but persist
  // the raw JSON: the stored document round-trips what the client sent.
  ParseInlineProperties(doc);
  if (doc.Has("properties")) {
    stored.properties_json = doc.At("properties").Dump(0);
  }
  const std::uint64_t revision = state.registry->Put(std::move(stored));
  json::Object body = ResponseEnvelope();
  body["id"] = id;
  body["revision"] = static_cast<std::int64_t>(revision);
  body["request_id"] = request_id;
  HttpResponse response =
      JsonResponse(revision == 1 ? 201 : 200, std::move(body));
  response.headers.emplace_back("ETag", ETagValue(revision));
  return response;
}

/// `GET /v1/deployments/{id}`: the stored iotsan.deployment/1 document
/// verbatim, revision in ETag.
HttpResponse HandleDeploymentGet(const ServiceState& state,
                                 const std::string& id) {
  auto deployment = state.registry->Get(id);
  if (!deployment) {
    throw RequestError(404, kErrNotFound, "no such deployment: " + id);
  }
  HttpResponse response;
  response.status = 200;
  response.body = registry::StoredDeploymentToJson(*deployment).Dump(0) + "\n";
  response.headers.emplace_back("ETag", ETagValue(deployment->revision));
  return response;
}

HttpResponse HandleDeploymentDelete(const ServiceState& state,
                                    const std::string& request_id,
                                    const std::string& id) {
  if (!state.registry->Remove(id)) {
    throw RequestError(404, kErrNotFound, "no such deployment: " + id);
  }
  json::Object doc = ResponseEnvelope();
  doc["id"] = id;
  doc["deleted"] = true;
  doc["request_id"] = request_id;
  return JsonResponse(200, std::move(doc));
}

/// `POST /v1/deployments/{id}/check`: delta re-verification against the
/// retained prior.  The body may be empty (server defaults) or carry an
/// iotsan.request/1 "options" object; If-Match pins a revision (409
/// when stale).
HttpResponse HandleDeploymentCheck(const HttpRequest& request,
                                   const ServiceState& state,
                                   const std::string& request_id,
                                   const std::string& id) {
  const std::optional<std::uint64_t> if_match = ParseIfMatch(request);
  ParsedOptionsMeta meta;
  core::RequestOptions options;
  if (!request.body.empty()) {
    const json::Value doc = ParseBodyJson(request.body);
    if (!doc.is_object()) {
      throw RequestError(400, kErrBadSchema,
                         "check body must be a JSON object (or empty for "
                         "server defaults)");
    }
    if (doc.Has("schema") && (!doc.At("schema").is_string() ||
                              doc.At("schema").AsString() != kRequestSchema)) {
      throw RequestError(400, kErrBadSchema,
                         std::string("unsupported request schema (this "
                                     "server speaks ") + kRequestSchema + ")");
    }
    options = ParseOptions(doc, &meta);
  }
  ApplyServerDefaults(options, meta, state);
  core::ServiceEnv env = state.env;
  env.request_id = request_id;
  if (state.inflight != nullptr) {
    InflightEntry entry;
    entry.request_id = request_id;
    entry.endpoint = "fleet_check";
    entry.deployment = id;
    entry.deadline_seconds = options.deadline_seconds;
    entry.started = std::chrono::steady_clock::now();
    state.inflight->Register(entry);
  }
  InflightGuard inflight_guard(state.inflight, request_id);
  WireProgressEvents(env, state, request_id);

  std::optional<registry::Fleet::CheckOutcome> outcome;
  try {
    outcome = state.registry->Check(id, if_match, options, env);
  } catch (const registry::RevisionConflict& e) {
    // The message carries both revisions; the client re-GETs for the
    // fresh ETag and retries.
    throw RequestError(409, kErrConflict, e.what());
  }
  if (!outcome) {
    throw RequestError(404, kErrNotFound, "no such deployment: " + id);
  }
  json::Object doc = ResponseEnvelope();
  doc["id"] = id;
  doc["revision"] = static_cast<std::int64_t>(outcome->revision);
  doc["verdict"] = outcome->response.report.violations.empty()
                       ? "clean"
                       : "violations";
  doc["exit_code"] = outcome->response.exit_code;
  doc["text"] = outcome->response.text;
  json::Object delta;
  delta["groups_total"] = static_cast<std::int64_t>(outcome->groups_total);
  delta["groups_reused"] = static_cast<std::int64_t>(outcome->groups_reused);
  delta["groups_recomputed"] =
      static_cast<std::int64_t>(outcome->groups_recomputed);
  doc["delta"] = std::move(delta);
  doc["check_seconds"] = outcome->check_seconds;
  doc["request_id"] = request_id;
  HttpResponse response = JsonResponse(200, std::move(doc));
  response.headers.emplace_back("ETag", ETagValue(outcome->revision));
  return response;
}

/// Dispatches everything under /v1/deployments.  The id segment doubles
/// as a directory name in the store, so validation happens before any
/// handler runs; `context` learns the id for the access log.
HttpResponse RouteDeployments(const HttpRequest& request,
                              const std::string& path,
                              const ServiceState& state,
                              const std::string& request_id,
                              RequestContext* context) {
  if (state.registry == nullptr) {
    throw RequestError(404, kErrNotFound,
                       "fleet registry is not enabled on this server");
  }
  if (path == "/v1/deployments") {
    if (request.method != "GET") {
      return MethodNotAllowed("GET", path, request_id);
    }
    return HandleDeploymentList(state, request_id);
  }
  std::string id = path.substr(std::string("/v1/deployments/").size());
  bool check = false;
  constexpr std::string_view kCheckSuffix = "/check";
  if (id.size() > kCheckSuffix.size() &&
      id.compare(id.size() - kCheckSuffix.size(), kCheckSuffix.size(),
                 kCheckSuffix) == 0) {
    check = true;
    id.resize(id.size() - kCheckSuffix.size());
  }
  if (!registry::IsValidDeploymentId(id)) {
    throw RequestError(400, kErrBadRequest,
                       "invalid deployment id \"" + id + "\" (want 1-64 of "
                       "[A-Za-z0-9._-], no leading dot)");
  }
  if (context != nullptr) context->deployment_id = id;
  if (check) {
    if (request.method != "POST") {
      return MethodNotAllowed("POST", path, request_id);
    }
    return HandleDeploymentCheck(request, state, request_id, id);
  }
  if (request.method == "PUT") {
    return HandleDeploymentPut(request, state, request_id, id);
  }
  if (request.method == "GET") {
    return HandleDeploymentGet(state, id);
  }
  if (request.method == "DELETE") {
    return HandleDeploymentDelete(state, request_id, id);
  }
  return MethodNotAllowed("GET, PUT, DELETE", path, request_id);
}

}  // namespace

HttpResponse ErrorResponse(int status, const std::string& code,
                           const std::string& message,
                           const std::string& request_id) {
  json::Object error;
  error["code"] = code;
  error["message"] = message;
  json::Object doc;
  doc["error"] = std::move(error);
  if (!request_id.empty()) doc["request_id"] = request_id;
  HttpResponse response = JsonResponse(status, std::move(doc));
  if (!request_id.empty()) {
    response.headers.emplace_back("X-Request-Id", request_id);
  }
  return response;
}

bool IsValidRequestId(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string GenerateRequestId() {
  static std::atomic<std::uint64_t> counter{0};
  // splitmix64 over a timestamp + per-process sequence: unique within
  // the process, well-mixed across restarts.  Not a security token.
  std::uint64_t x = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  x += 0x9e3779b97f4a7c15ULL *
       (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

core::CheckRequest ParseCheckRequest(const std::string& body,
                                     ParsedOptionsMeta* meta) {
  const json::Value doc = ParseBodyJson(body);
  const json::Value& deployment = ValidateEnvelope(doc);
  core::CheckRequest out;
  out.deployment = ParseDeploymentOrThrow(deployment);
  out.extra_sources = ParseInlineSources(doc);
  out.extra_properties = ParseInlineProperties(doc);
  out.options = ParseOptions(doc, meta);
  return out;
}

core::AttributeRequest ParseAttributeRequest(const std::string& body,
                                             ParsedOptionsMeta* meta) {
  const json::Value doc = ParseBodyJson(body);
  const json::Value& deployment = ValidateEnvelope(doc);
  core::AttributeRequest out;
  out.deployment = ParseDeploymentOrThrow(deployment);
  out.options = ParseOptions(doc, meta);
  if (!doc.Has("app") || !doc.At("app").is_object()) {
    throw RequestError(400, kErrBadSchema,
                       "attribute requests need an \"app\" object: "
                       "{\"source\": \"<SmartScript>\"} or "
                       "{\"corpus\": \"<bundled app name>\"}");
  }
  const json::Value& app = doc.At("app");
  if (app.Has("source")) {
    if (!app.At("source").is_string()) {
      throw RequestError(400, kErrBadRequest,
                         "\"app.source\" must be SmartScript text");
    }
    out.app_source = app.At("source").AsString();
  } else if (app.Has("corpus")) {
    if (!app.At("corpus").is_string()) {
      throw RequestError(400, kErrBadRequest,
                         "\"app.corpus\" must be a bundled app name");
    }
    const std::string name = app.At("corpus").AsString();
    const corpus::CorpusApp* found = corpus::FindApp(name);
    if (found == nullptr) {
      throw RequestError(400, kErrBadRequest,
                         "unknown corpus app \"" + name + "\" (GET "
                         "/v1/apps is not served; see `iotsan apps`)");
    }
    out.app_source = found->source;
  } else {
    throw RequestError(400, kErrBadSchema,
                       "\"app\" needs either \"source\" or \"corpus\"");
  }
  return out;
}

HttpResponse Route(const HttpRequest& request, const ServiceState& state,
                   RequestContext* context) {
  if (auto* t = telemetry::Active()) ++t->server.requests;
  const auto header = request.headers.find("x-request-id");
  const std::string request_id =
      header != request.headers.end() && IsValidRequestId(header->second)
          ? header->second
          : GenerateRequestId();
  if (context != nullptr) context->request_id = request_id;
  HttpResponse response;
  std::string error_code;
  try {
    // Strip the query string for dispatch (HandleMetrics still sees the
    // raw target for its ?format= negotiation): the API carries
    // everything else in bodies.
    std::string path = request.target.substr(0, request.target.find('?'));
    if (path == "/v1/health") {
      response = request.method == "GET"
                     ? HandleHealth(state, request_id)
                     : MethodNotAllowed("GET", path, request_id);
    } else if (path == "/v1/status") {
      response = request.method == "GET"
                     ? HandleStatus(state, request_id)
                     : MethodNotAllowed("GET", path, request_id);
    } else if (path == "/v1/metrics") {
      response = request.method == "GET"
                     ? HandleMetrics(request, state)
                     : MethodNotAllowed("GET", path, request_id);
    } else if (path == "/v1/version") {
      response = request.method == "GET"
                     ? HandleVersion(request_id)
                     : MethodNotAllowed("GET", path, request_id);
    } else if (path == "/v1/check") {
      response = request.method == "POST"
                     ? HandleCheck(request, state, request_id)
                     : MethodNotAllowed("POST", path, request_id);
    } else if (path == "/v1/attribute") {
      response = request.method == "POST"
                     ? HandleAttribute(request, state, request_id)
                     : MethodNotAllowed("POST", path, request_id);
    } else if (path == "/v1/deployments" ||
               path.rfind("/v1/deployments/", 0) == 0) {
      response = RouteDeployments(request, path, state, request_id, context);
    } else {
      response = ErrorResponse(404, kErrNotFound,
                               "no such endpoint: " + path, request_id);
    }
    if (response.status >= 400) {
      if (response.status == 405) error_code = kErrMethod;
      if (response.status == 404) error_code = kErrNotFound;
    }
  } catch (const RequestError& e) {
    response = ErrorResponse(e.status(), e.code(), e.what(), request_id);
    error_code = e.code();
  } catch (const Error& e) {
    // Library errors on user-supplied input (bad app source, property
    // expression, deployment semantics) are client errors.
    response = ErrorResponse(400, kErrBadRequest, e.what(), request_id);
    error_code = kErrBadRequest;
  } catch (const std::exception& e) {
    response = ErrorResponse(500, kErrInternal, e.what(), request_id);
    error_code = kErrInternal;
  }
  if (context != nullptr) context->error_code = error_code;
  // ErrorResponse already added the header on error paths.
  bool has_id_header = false;
  for (const auto& [name, value] : response.headers) {
    if (name == "X-Request-Id") has_id_header = true;
  }
  if (!has_id_header) {
    response.headers.emplace_back("X-Request-Id", request_id);
  }
  if (auto* t = telemetry::Active()) {
    if (response.status < 400) {
      ++t->server.responses_ok;
    } else if (response.status < 500) {
      ++t->server.responses_client_error;
    } else {
      ++t->server.responses_server_error;
    }
  }
  return response;
}

}  // namespace iotsan::server
