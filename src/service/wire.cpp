#include "service/wire.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "dfg/parse.hpp"
#include "util/status.hpp"

namespace ht::service {
namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Rejects documents from a newer schema; absent/garbled versions are
/// indistinguishable from arbitrary JSON and rejected too.
bool check_version(const Json& json, std::string* error) {
  const Json& version = json.get("schema_version");
  if (!version.is_int()) {
    return fail(error, "missing or non-integer schema_version");
  }
  if (version.as_int() < 1 || version.as_int() > kSchemaVersion) {
    return fail(error, "unsupported schema_version " +
                           std::to_string(version.as_int()) +
                           " (this build speaks <= " +
                           std::to_string(kSchemaVersion) + ")");
  }
  return true;
}

const char* strategy_name(core::Strategy strategy) {
  return strategy == core::Strategy::kHeuristic ? "heuristic" : "exact";
}

bool parse_strategy(const std::string& name, core::Strategy* out) {
  if (name == "exact") {
    *out = core::Strategy::kExact;
    return true;
  }
  if (name == "heuristic") {
    *out = core::Strategy::kHeuristic;
    return true;
  }
  return false;
}

const char* status_name(core::OptStatus status) {
  switch (status) {
    case core::OptStatus::kOptimal: return "optimal";
    case core::OptStatus::kFeasible: return "feasible";
    case core::OptStatus::kInfeasible: return "infeasible";
    case core::OptStatus::kUnknown: return "unknown";
  }
  return "unknown";
}

bool parse_status(const std::string& name, core::OptStatus* out) {
  if (name == "optimal") *out = core::OptStatus::kOptimal;
  else if (name == "feasible") *out = core::OptStatus::kFeasible;
  else if (name == "infeasible") *out = core::OptStatus::kInfeasible;
  else if (name == "unknown") *out = core::OptStatus::kUnknown;
  else return false;
  return true;
}

bool parse_resource_class(const std::string& name, dfg::ResourceClass* out) {
  for (int c = 0; c < dfg::kNumResourceClasses; ++c) {
    const auto rc = static_cast<dfg::ResourceClass>(c);
    if (dfg::resource_class_name(rc) == name) {
      *out = rc;
      return true;
    }
  }
  return false;
}

Json license_to_json(const core::LicenseKey& license) {
  Json json = Json::object();
  json.set("vendor", license.vendor);
  json.set("class", dfg::resource_class_name(license.rc));
  return json;
}

bool license_from_json(const Json& json, core::LicenseKey* out,
                       std::string* error) {
  if (!json.is_object()) return fail(error, "license entry is not an object");
  core::LicenseKey license;
  license.vendor = static_cast<vendor::VendorId>(
      json.get("vendor").as_int(-1));
  if (license.vendor < 0) return fail(error, "license entry missing vendor");
  if (!parse_resource_class(json.get("class").as_string(), &license.rc)) {
    return fail(error, "license entry has unknown class '" +
                           json.get("class").as_string() + "'");
  }
  *out = license;
  return true;
}

Json solution_to_json(const core::Solution& solution) {
  Json json = Json::object();
  json.set("num_ops", solution.num_ops());
  json.set("with_recovery", solution.with_recovery());
  Json bindings = Json::array();
  for (const core::CopyRef& ref : solution.all_copies()) {
    const core::Binding& binding = solution.at(ref);
    if (!binding.is_set()) continue;
    Json entry = Json::object();
    entry.set("kind", static_cast<int>(ref.kind));
    entry.set("op", ref.op);
    entry.set("cycle", binding.cycle);
    entry.set("vendor", binding.vendor);
    entry.set("instance", binding.instance);
    bindings.push_back(std::move(entry));
  }
  json.set("bindings", std::move(bindings));
  return json;
}

bool solution_from_json(const Json& json, core::Solution* out,
                        std::string* error) {
  if (!json.is_object()) return fail(error, "solution is not an object");
  const int num_ops = static_cast<int>(json.get("num_ops").as_int(0));
  if (num_ops <= 0) return fail(error, "solution has non-positive num_ops");
  core::Solution solution(num_ops, json.get("with_recovery").as_bool(false));
  const Json& bindings = json.get("bindings");
  if (!bindings.is_array()) {
    return fail(error, "solution.bindings is not an array");
  }
  for (const Json& entry : bindings.items()) {
    const long long kind = entry.get("kind").as_int(-1);
    const long long op = entry.get("op").as_int(-1);
    if (kind < 0 || kind >= core::kNumCopyKinds || op < 0 || op >= num_ops) {
      return fail(error, "solution binding has out-of-range kind/op");
    }
    core::Binding binding;
    binding.cycle = static_cast<int>(entry.get("cycle").as_int(-1));
    binding.vendor = static_cast<vendor::VendorId>(
        entry.get("vendor").as_int(-1));
    binding.instance = static_cast<int>(entry.get("instance").as_int(-1));
    if (!binding.is_set()) {
      return fail(error, "solution binding is incomplete");
    }
    solution.at(static_cast<core::CopyKind>(kind),
                static_cast<dfg::OpId>(op)) = binding;
  }
  *out = std::move(solution);
  return true;
}

Json stats_to_json(const core::OptimizeStats& stats) {
  Json json = Json::object();
  json.set("combos_tried", stats.combos_tried);
  json.set("combos_skipped_screen", stats.combos_skipped_screen);
  json.set("combos_skipped_cache", stats.combos_skipped_cache);
  json.set("unknown_combos", stats.unknown_combos);
  json.set("csp_nodes", stats.csp_nodes);
  json.set("nodes_total", stats.nodes_total);
  json.set("nogoods_learned", stats.nogoods_learned);
  json.set("backjumps", stats.backjumps);
  json.set("restarts", stats.restarts);
  json.set("lb_prunes", stats.lb_prunes);
  json.set("nogood_watch_visits", stats.nogood_watch_visits);
  json.set("incumbents_published", stats.incumbents_published);
  json.set("sls_steps", stats.sls_steps);
  json.set("best_source", stats.best_source);
  json.set("time_to_incumbent_seconds", stats.time_to_incumbent_seconds);
  json.set("time_to_best_seconds", stats.time_to_best_seconds);
  json.set("seconds", stats.seconds);
  return json;
}

void stats_from_json(const Json& json, core::OptimizeStats* out) {
  out->combos_tried = json.get("combos_tried").as_int(0);
  out->combos_skipped_screen = json.get("combos_skipped_screen").as_int(0);
  out->combos_skipped_cache = json.get("combos_skipped_cache").as_int(0);
  out->unknown_combos = json.get("unknown_combos").as_int(0);
  out->csp_nodes = json.get("csp_nodes").as_int(0);
  out->nodes_total = json.get("nodes_total").as_int(0);
  out->nogoods_learned = json.get("nogoods_learned").as_int(0);
  out->backjumps = json.get("backjumps").as_int(0);
  out->restarts = json.get("restarts").as_int(0);
  out->lb_prunes = json.get("lb_prunes").as_int(0);
  out->nogood_watch_visits = json.get("nogood_watch_visits").as_int(0);
  out->incumbents_published = json.get("incumbents_published").as_int(0);
  out->sls_steps = json.get("sls_steps").as_int(0);
  // Portfolio attribution defaults are sentinels, not zeros: pre-portfolio
  // peers simply omit the keys.
  out->best_source =
      static_cast<int>(json.get("best_source").as_int(-1));
  out->time_to_incumbent_seconds =
      json.get("time_to_incumbent_seconds").as_double(-1.0);
  out->time_to_best_seconds =
      json.get("time_to_best_seconds").as_double(-1.0);
  out->seconds = json.get("seconds").as_double(0.0);
}

}  // namespace

// ---- spec ---------------------------------------------------------------

Json spec_to_json(const core::ProblemSpec& spec) {
  Json json = Json::object();
  json.set("graph", dfg::to_text(spec.graph));

  Json catalog = Json::object();
  catalog.set("num_vendors", spec.catalog.num_vendors());
  Json offers = Json::array();
  for (vendor::VendorId v = 0; v < spec.catalog.num_vendors(); ++v) {
    for (int c = 0; c < dfg::kNumResourceClasses; ++c) {
      const auto rc = static_cast<dfg::ResourceClass>(c);
      if (!spec.catalog.offers(v, rc)) continue;
      const vendor::IpOffer& offer = spec.catalog.offer(v, rc);
      Json entry = Json::object();
      entry.set("vendor", v);
      entry.set("class", dfg::resource_class_name(rc));
      entry.set("area", offer.area);
      entry.set("cost", offer.cost);
      offers.push_back(std::move(entry));
    }
  }
  catalog.set("offers", std::move(offers));
  json.set("catalog", std::move(catalog));

  json.set("lambda_detection", spec.lambda_detection);
  json.set("lambda_recovery", spec.lambda_recovery);
  json.set("with_recovery", spec.with_recovery);
  json.set("area_limit", spec.area_limit);
  json.set("max_instances_per_offer", spec.max_instances_per_offer);

  Json latency = Json::array();
  for (const int cycles : spec.class_latency) latency.push_back(cycles);
  json.set("class_latency", std::move(latency));

  Json rules = Json::object();
  rules.set("detection_same_op", spec.rules.detection_same_op);
  rules.set("detection_parent_child", spec.rules.detection_parent_child);
  rules.set("detection_sibling", spec.rules.detection_sibling);
  rules.set("sibling_diversity_all_copies",
            spec.rules.sibling_diversity_all_copies);
  rules.set("recovery_same_op", spec.rules.recovery_same_op);
  rules.set("recovery_close_pairs", spec.rules.recovery_close_pairs);
  json.set("rules", std::move(rules));

  Json pairs = Json::array();
  for (const auto& [a, b] : spec.closely_related) {
    Json pair = Json::array();
    pair.push_back(a);
    pair.push_back(b);
    pairs.push_back(std::move(pair));
  }
  json.set("closely_related", std::move(pairs));
  return json;
}

bool spec_from_json(const Json& json, core::ProblemSpec* out,
                    std::string* error) {
  if (!json.is_object()) return fail(error, "spec is not an object");
  core::ProblemSpec spec;
  try {
    spec.graph = dfg::parse_dfg(json.get("graph").as_string());
  } catch (const util::Error& parse_error) {
    return fail(error, std::string("spec.graph: ") + parse_error.what());
  }

  const Json& catalog = json.get("catalog");
  const int num_vendors =
      static_cast<int>(catalog.get("num_vendors").as_int(0));
  if (num_vendors < 1 || num_vendors > core::kMaxVendors) {
    return fail(error, "spec.catalog.num_vendors out of range");
  }
  vendor::Catalog market(num_vendors);
  const Json& offers = catalog.get("offers");
  if (!offers.is_array()) {
    return fail(error, "spec.catalog.offers is not an array");
  }
  for (const Json& entry : offers.items()) {
    core::LicenseKey license;
    if (!license_from_json(entry, &license, error)) return false;
    if (license.vendor >= num_vendors) {
      return fail(error, "spec.catalog offer names an out-of-range vendor");
    }
    vendor::IpOffer offer;
    offer.area = static_cast<int>(entry.get("area").as_int(0));
    offer.cost = static_cast<int>(entry.get("cost").as_int(0));
    market.set_offer(license.vendor, license.rc, offer);
  }
  spec.catalog = std::move(market);

  spec.lambda_detection =
      static_cast<int>(json.get("lambda_detection").as_int(0));
  spec.lambda_recovery =
      static_cast<int>(json.get("lambda_recovery").as_int(0));
  spec.with_recovery = json.get("with_recovery").as_bool(true);
  spec.area_limit = json.get("area_limit").as_int(0);
  spec.max_instances_per_offer =
      static_cast<int>(json.get("max_instances_per_offer").as_int(0));

  const Json& latency = json.get("class_latency");
  if (latency.is_array()) {
    if (latency.size() != spec.class_latency.size()) {
      return fail(error, "spec.class_latency must have " +
                             std::to_string(spec.class_latency.size()) +
                             " entries");
    }
    for (std::size_t c = 0; c < spec.class_latency.size(); ++c) {
      spec.class_latency[c] = static_cast<int>(latency.at(c).as_int(1));
    }
  }

  const Json& rules = json.get("rules");
  spec.rules.detection_same_op =
      rules.get("detection_same_op").as_bool(spec.rules.detection_same_op);
  spec.rules.detection_parent_child =
      rules.get("detection_parent_child")
          .as_bool(spec.rules.detection_parent_child);
  spec.rules.detection_sibling =
      rules.get("detection_sibling").as_bool(spec.rules.detection_sibling);
  spec.rules.sibling_diversity_all_copies =
      rules.get("sibling_diversity_all_copies")
          .as_bool(spec.rules.sibling_diversity_all_copies);
  spec.rules.recovery_same_op =
      rules.get("recovery_same_op").as_bool(spec.rules.recovery_same_op);
  spec.rules.recovery_close_pairs =
      rules.get("recovery_close_pairs")
          .as_bool(spec.rules.recovery_close_pairs);

  const Json& pairs = json.get("closely_related");
  if (pairs.is_array()) {
    for (const Json& pair : pairs.items()) {
      if (!pair.is_array() || pair.size() != 2) {
        return fail(error, "spec.closely_related entries must be pairs");
      }
      spec.closely_related.emplace_back(
          static_cast<dfg::OpId>(pair.at(0).as_int(-1)),
          static_cast<dfg::OpId>(pair.at(1).as_int(-1)));
    }
  }

  try {
    spec.validate();
  } catch (const util::Error& spec_error) {
    return fail(error, std::string("spec: ") + spec_error.what());
  }
  *out = std::move(spec);
  return true;
}

// ---- result -------------------------------------------------------------

Json result_to_json(const core::OptimizeResult& result) {
  Json json = Json::object();
  json.set("status", status_name(result.status));
  json.set("cost", result.cost);
  if (result.has_solution()) {
    json.set("solution", solution_to_json(result.solution));
  }
  json.set("stats", stats_to_json(result.stats));
  if (!result.metrics.empty()) {
    Json metrics;
    std::string metrics_error;
    if (Json::parse(obs::to_json(result.metrics), &metrics,
                    &metrics_error)) {
      json.set("metrics", std::move(metrics));
    }
  }
  return json;
}

bool result_from_json(const Json& json, core::OptimizeResult* out,
                      std::string* error) {
  if (!json.is_object()) return fail(error, "result is not an object");
  core::OptimizeResult result;
  if (!parse_status(json.get("status").as_string(), &result.status)) {
    return fail(error, "result has unknown status '" +
                           json.get("status").as_string() + "'");
  }
  result.cost = json.get("cost").as_int(0);
  if (result.has_solution()) {
    if (!solution_from_json(json.get("solution"), &result.solution, error)) {
      return false;
    }
  }
  stats_from_json(json.get("stats"), &result.stats);
  if (json.has("metrics") &&
      !obs::parse_metrics_json(json.get("metrics").dump(),
                               &result.metrics)) {
    return fail(error, "result.metrics does not parse as SolveMetrics");
  }
  *out = std::move(result);
  return true;
}

// ---- request ------------------------------------------------------------

Json request_to_json(const core::SynthesisRequest& request) {
  Json json = Json::object();
  json.set("schema_version", kSchemaVersion);
  json.set("kind", core::request_kind_name(request.kind));
  json.set("spec", spec_to_json(request.spec));
  json.set("strategy", strategy_name(request.strategy));

  Json limits = Json::object();
  limits.set("time_limit_seconds", request.limits.time_limit_seconds);
  limits.set("csp_node_limit",
             static_cast<long long>(request.limits.csp_node_limit));
  limits.set("heuristic_restarts", request.limits.heuristic_restarts);
  limits.set("heuristic_node_limit",
             static_cast<long long>(request.limits.heuristic_node_limit));
  limits.set("max_combos", static_cast<long long>(request.limits.max_combos));
  json.set("limits", std::move(limits));

  Json parallelism = Json::object();
  parallelism.set("threads", request.parallelism.threads);
  json.set("parallelism", std::move(parallelism));

  Json pruning = Json::object();
  pruning.set("dominance_cache", request.pruning.dominance_cache);
  pruning.set("static_screens", request.pruning.static_screens);
  pruning.set("nogood_learning", request.pruning.nogood_learning);
  pruning.set("cost_bounds", request.pruning.cost_bounds);
  json.set("pruning", std::move(pruning));

  Json portfolio = Json::object();
  portfolio.set("enabled", request.portfolio.enabled);
  json.set("portfolio", std::move(portfolio));

  Json observability = Json::object();
  observability.set("metrics", request.observability.metrics);
  json.set("observability", std::move(observability));

  json.set("seed", static_cast<long long>(request.seed));
  json.set("lambda_total", request.lambda_total);

  Json sweep = Json::array();
  for (const long long value : request.sweep_values) sweep.push_back(value);
  json.set("sweep_values", std::move(sweep));

  Json banned = Json::array();
  for (const core::LicenseKey& license : request.banned) {
    banned.push_back(license_to_json(license));
  }
  json.set("banned", std::move(banned));
  return json;
}

std::string serialize_request(const core::SynthesisRequest& request) {
  return request_to_json(request).dump();
}

bool request_from_json(const Json& json, core::SynthesisRequest* out,
                       std::string* error) {
  if (!json.is_object()) return fail(error, "request is not an object");
  if (!check_version(json, error)) return false;
  core::SynthesisRequest request;
  if (json.has("kind") &&
      !core::parse_request_kind(json.get("kind").as_string(),
                                &request.kind)) {
    return fail(error, "request has unknown kind '" +
                           json.get("kind").as_string() + "'");
  }
  if (!spec_from_json(json.get("spec"), &request.spec, error)) return false;
  if (json.has("strategy") &&
      !parse_strategy(json.get("strategy").as_string(), &request.strategy)) {
    return fail(error, "request has unknown strategy '" +
                           json.get("strategy").as_string() + "'");
  }

  const Json& limits = json.get("limits");
  request.limits.time_limit_seconds =
      limits.get("time_limit_seconds")
          .as_double(request.limits.time_limit_seconds);
  request.limits.csp_node_limit = static_cast<long>(
      limits.get("csp_node_limit").as_int(request.limits.csp_node_limit));
  request.limits.heuristic_restarts = static_cast<int>(
      limits.get("heuristic_restarts")
          .as_int(request.limits.heuristic_restarts));
  request.limits.heuristic_node_limit = static_cast<long>(
      limits.get("heuristic_node_limit")
          .as_int(request.limits.heuristic_node_limit));
  request.limits.max_combos = static_cast<long>(
      limits.get("max_combos").as_int(request.limits.max_combos));

  request.parallelism.threads = static_cast<int>(
      json.get("parallelism").get("threads")
          .as_int(request.parallelism.threads));

  const Json& pruning = json.get("pruning");
  request.pruning.dominance_cache =
      pruning.get("dominance_cache").as_bool(request.pruning.dominance_cache);
  request.pruning.static_screens =
      pruning.get("static_screens").as_bool(request.pruning.static_screens);
  request.pruning.nogood_learning =
      pruning.get("nogood_learning").as_bool(request.pruning.nogood_learning);
  request.pruning.cost_bounds =
      pruning.get("cost_bounds").as_bool(request.pruning.cost_bounds);

  const Json& portfolio = json.get("portfolio");
  request.portfolio.enabled =
      portfolio.get("enabled").as_bool(request.portfolio.enabled);

  request.observability.metrics =
      json.get("observability").get("metrics")
          .as_bool(request.observability.metrics);

  request.seed =
      static_cast<std::uint64_t>(json.get("seed").as_int(
          static_cast<long long>(request.seed)));
  request.lambda_total =
      static_cast<int>(json.get("lambda_total").as_int(0));

  const Json& sweep = json.get("sweep_values");
  if (sweep.is_array()) {
    for (const Json& value : sweep.items()) {
      request.sweep_values.push_back(value.as_int(0));
    }
  }

  const Json& banned = json.get("banned");
  if (banned.is_array()) {
    for (const Json& entry : banned.items()) {
      core::LicenseKey license;
      if (!license_from_json(entry, &license, error)) return false;
      request.banned.insert(license);
    }
  }
  *out = std::move(request);
  return true;
}

bool parse_request(std::string_view text, core::SynthesisRequest* out,
                   std::string* error) {
  Json json;
  if (!Json::parse(text, &json, error)) return false;
  return request_from_json(json, out, error);
}

// ---- response -----------------------------------------------------------

Json response_to_json(const core::SynthesisResponse& response) {
  Json json = Json::object();
  json.set("schema_version", kSchemaVersion);
  json.set("kind", core::request_kind_name(response.kind));
  json.set("result", result_to_json(response.result));
  json.set("lambda_detection", response.lambda_detection);
  json.set("lambda_recovery", response.lambda_recovery);
  Json frontier = Json::array();
  for (const core::FrontierPoint& point : response.frontier) {
    Json entry = Json::object();
    entry.set("constraint", point.constraint);
    entry.set("result", result_to_json(point.result));
    frontier.push_back(std::move(entry));
  }
  json.set("frontier", std::move(frontier));
  return json;
}

std::string serialize_response(const core::SynthesisResponse& response) {
  return response_to_json(response).dump();
}

bool response_from_json(const Json& json, core::SynthesisResponse* out,
                        std::string* error) {
  if (!json.is_object()) return fail(error, "response is not an object");
  if (!check_version(json, error)) return false;
  core::SynthesisResponse response;
  if (json.has("kind") &&
      !core::parse_request_kind(json.get("kind").as_string(),
                                &response.kind)) {
    return fail(error, "response has unknown kind '" +
                           json.get("kind").as_string() + "'");
  }
  if (!result_from_json(json.get("result"), &response.result, error)) {
    return false;
  }
  response.lambda_detection =
      static_cast<int>(json.get("lambda_detection").as_int(0));
  response.lambda_recovery =
      static_cast<int>(json.get("lambda_recovery").as_int(0));
  const Json& frontier = json.get("frontier");
  if (frontier.is_array()) {
    for (const Json& entry : frontier.items()) {
      core::FrontierPoint point;
      point.constraint = entry.get("constraint").as_int(0);
      if (!result_from_json(entry.get("result"), &point.result, error)) {
        return false;
      }
      response.frontier.push_back(std::move(point));
    }
  }
  *out = std::move(response);
  return true;
}

bool parse_response(std::string_view text, core::SynthesisResponse* out,
                    std::string* error) {
  Json json;
  if (!Json::parse(text, &json, error)) return false;
  return response_from_json(json, out, error);
}

// ---- warm-state snapshots -----------------------------------------------

namespace {

std::string u64_hex(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

bool u64_from_hex(const Json& json, std::uint64_t* out) {
  const std::string text = json.as_string();
  if (text.size() < 3 || text[0] != '0' || (text[1] != 'x' && text[1] != 'X')) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str() + 2, &end, 16);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(value);
  return true;
}

Json signature_to_json(const core::PaletteSignature& sig) {
  Json json = Json::object();
  Json masks = Json::array();
  for (std::uint64_t mask : sig.masks) masks.push_back(u64_hex(mask));
  json.set("masks", std::move(masks));
  json.set("lambda_detection", sig.lambda_detection);
  json.set("lambda_recovery", sig.lambda_recovery);
  json.set("area_limit", sig.area_limit);
  return json;
}

bool signature_from_json(const Json& json, core::PaletteSignature* out,
                         std::string* error) {
  if (!json.is_object()) return fail(error, "signature is not an object");
  core::PaletteSignature sig;
  const Json& masks = json.get("masks");
  if (!masks.is_array() ||
      masks.items().size() != dfg::kNumResourceClasses) {
    return fail(error, "signature.masks must have " +
                           std::to_string(dfg::kNumResourceClasses) +
                           " entries");
  }
  for (std::size_t cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    if (!u64_from_hex(masks.items()[cls], &sig.masks[cls])) {
      return fail(error, "signature.masks entry is not a hex string");
    }
  }
  sig.lambda_detection =
      static_cast<int>(json.get("lambda_detection").as_int(0));
  sig.lambda_recovery =
      static_cast<int>(json.get("lambda_recovery").as_int(0));
  sig.area_limit = json.get("area_limit").as_int(0);
  *out = sig;
  return true;
}

Json offer_areas_to_json(const std::vector<long long>& areas) {
  Json json = Json::array();
  for (long long area : areas) json.push_back(area);
  return json;
}

void offer_areas_from_json(const Json& json, std::vector<long long>* out) {
  if (!json.is_array()) return;
  for (const Json& entry : json.items()) out->push_back(entry.as_int(-1));
}

}  // namespace

Json warm_snapshot_to_json(const core::WarmSnapshot& snapshot) {
  Json json = Json::object();
  json.set("schema_version", kSchemaVersion);
  json.set("market", u64_hex(snapshot.market));
  json.set("version", static_cast<long long>(snapshot.version));

  Json cache = Json::object();
  cache.set("fingerprint", u64_hex(snapshot.cache.fingerprint));
  cache.set("offer_areas", offer_areas_to_json(snapshot.cache.offer_areas));
  Json proofs = Json::array();
  for (const core::CacheProof& proof : snapshot.cache.proofs) {
    Json entry = Json::object();
    entry.set("sig", signature_to_json(proof.sig));
    entry.set("cost", proof.combo_cost);
    proofs.push_back(std::move(entry));
  }
  cache.set("proofs", std::move(proofs));
  json.set("cache", std::move(cache));

  Json nogoods = Json::object();
  nogoods.set("fingerprint", u64_hex(snapshot.nogoods.fingerprint));
  nogoods.set("offer_areas",
              offer_areas_to_json(snapshot.nogoods.offer_areas));
  Json entries = Json::array();
  for (const core::SealedNogood& sealed : snapshot.nogoods.entries) {
    Json entry = Json::object();
    entry.set("guard", signature_to_json(sealed.guard));
    entry.set("cost", sealed.combo_cost);
    // Compact literal form: [copy, vendor, cycle_lo, cycle_hi] per lit.
    Json lits = Json::array();
    for (const core::NogoodLit& lit : sealed.nogood.lits) {
      Json tuple = Json::array();
      tuple.push_back(lit.copy);
      tuple.push_back(lit.vendor);
      tuple.push_back(lit.cycle_lo);
      tuple.push_back(lit.cycle_hi);
      lits.push_back(std::move(tuple));
    }
    entry.set("lits", std::move(lits));
    entries.push_back(std::move(entry));
  }
  nogoods.set("entries", std::move(entries));
  json.set("nogoods", std::move(nogoods));
  return json;
}

std::string serialize_warm_snapshot(const core::WarmSnapshot& snapshot) {
  return warm_snapshot_to_json(snapshot).dump();
}

bool warm_snapshot_from_json(const Json& json, core::WarmSnapshot* out,
                             std::string* error) {
  if (!json.is_object()) {
    return fail(error, "warm snapshot is not an object");
  }
  if (!check_version(json, error)) return false;
  core::WarmSnapshot snapshot;
  if (!u64_from_hex(json.get("market"), &snapshot.market)) {
    return fail(error, "warm snapshot missing hex market fingerprint");
  }
  snapshot.version =
      static_cast<std::uint64_t>(json.get("version").as_int(0));

  const Json& cache = json.get("cache");
  if (cache.is_object()) {
    if (!u64_from_hex(cache.get("fingerprint"),
                      &snapshot.cache.fingerprint)) {
      return fail(error, "warm snapshot cache missing hex fingerprint");
    }
    offer_areas_from_json(cache.get("offer_areas"),
                          &snapshot.cache.offer_areas);
    const Json& proofs = cache.get("proofs");
    if (proofs.is_array()) {
      for (const Json& entry : proofs.items()) {
        core::CacheProof proof;
        if (!signature_from_json(entry.get("sig"), &proof.sig, error)) {
          return false;
        }
        proof.combo_cost = entry.get("cost").as_int(0);
        snapshot.cache.proofs.push_back(proof);
      }
    }
  }

  const Json& nogoods = json.get("nogoods");
  if (nogoods.is_object()) {
    if (!u64_from_hex(nogoods.get("fingerprint"),
                      &snapshot.nogoods.fingerprint)) {
      return fail(error, "warm snapshot nogoods missing hex fingerprint");
    }
    offer_areas_from_json(nogoods.get("offer_areas"),
                          &snapshot.nogoods.offer_areas);
    const Json& entries = nogoods.get("entries");
    if (entries.is_array()) {
      for (const Json& entry : entries.items()) {
        core::SealedNogood sealed;
        if (!signature_from_json(entry.get("guard"), &sealed.guard, error)) {
          return false;
        }
        sealed.combo_cost = entry.get("cost").as_int(0);
        const Json& lits = entry.get("lits");
        if (lits.is_array()) {
          for (const Json& tuple : lits.items()) {
            if (!tuple.is_array() || tuple.items().size() != 4) {
              return fail(error, "nogood lit is not a 4-tuple");
            }
            core::NogoodLit lit;
            lit.copy = static_cast<int>(tuple.items()[0].as_int(0));
            lit.vendor = static_cast<int>(tuple.items()[1].as_int(0));
            lit.cycle_lo = static_cast<int>(tuple.items()[2].as_int(0));
            lit.cycle_hi = static_cast<int>(tuple.items()[3].as_int(0));
            sealed.nogood.lits.push_back(lit);
          }
        }
        snapshot.nogoods.entries.push_back(std::move(sealed));
      }
    }
  }
  *out = std::move(snapshot);
  return true;
}

bool parse_warm_snapshot(std::string_view text, core::WarmSnapshot* out,
                         std::string* error) {
  Json json;
  if (!Json::parse(text, &json, error)) return false;
  return warm_snapshot_from_json(json, out, error);
}

}  // namespace ht::service
