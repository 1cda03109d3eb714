// Tests for the versioned wire format (service/wire.hpp) and its JSON
// document model (service/json.hpp).
//
// The contract under test, in order of load-bearing-ness:
//  1. Round trips: serialize -> parse -> serialize is byte-identical for
//     requests and responses, including solutions, stats, and embedded
//     SolveMetrics — checked property-style over randomized requests.
//  2. Tolerant reads: unknown fields anywhere in the document are
//     ignored (a version N reader absorbs a field-adding version N+1
//     writer), and absent optional fields take the C++ defaults.
//  3. Version discipline: a missing, non-integer, or newer-than-this-
//     build schema_version is rejected with a reason, never misread.
//  4. Structured failure: malformed text, bad enums, and invalid specs
//     fail with an error message and leave the output untouched.
#include "service/wire.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "service/json.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace ht::service {
namespace {

// ---- Json document model --------------------------------------------------

TEST(JsonTest, DumpIsDeterministicSortedAndCompact) {
  Json json = Json::object();
  json.set("zeta", 1);
  json.set("alpha", Json::array());
  json.set("mid", "x");
  EXPECT_EQ(json.dump(), R"({"alpha":[],"mid":"x","zeta":1})");
  // Same fields inserted in another order dump to the same bytes.
  Json other = Json::object();
  other.set("mid", "x");
  other.set("zeta", 1);
  other.set("alpha", Json::array());
  EXPECT_EQ(other.dump(), json.dump());
}

TEST(JsonTest, ParsePreservesIntegersAndDecodesEscapes) {
  Json json;
  std::string error;
  ASSERT_TRUE(Json::parse(
      R"({"big":9007199254740993,"escape":"A\né","pair":"\ud83d\ude00"})",
      &json, &error))
      << error;
  // 2^53 + 1 is not representable as a double; it must survive as an int.
  EXPECT_TRUE(json.get("big").is_int());
  EXPECT_EQ(json.get("big").as_int(), 9007199254740993LL);
  EXPECT_EQ(json.get("escape").as_string(), "A\n\xc3\xa9");
  // Surrogate pair decodes to the 4-byte UTF-8 emoji.
  EXPECT_EQ(json.get("pair").as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonTest, ParseRejectsMalformedDocuments) {
  const std::vector<std::string> bad = {
      "",          "{",         "[1,]",       R"({"a":})",
      "tru",       "1 2",       R"({"a":1}x)", R"("unterminated)",
      R"({"a":"\ud83d"})",  // lone surrogate
  };
  for (const std::string& text : bad) {
    Json json;
    std::string error;
    EXPECT_FALSE(Json::parse(text, &json, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonTest, GetChainsSafelyThroughMissingKeys) {
  Json json = Json::object();
  EXPECT_TRUE(json.get("no").get("such").get("path").is_null());
  EXPECT_EQ(json.get("no").get("such").as_int(42), 42);
  EXPECT_EQ(json.get("no").as_string("fallback"), "fallback");
}

// ---- request round trips --------------------------------------------------

/// A request with every serializable field moved off its default.
core::SynthesisRequest fully_loaded_request() {
  core::SynthesisRequest request;
  request.kind = core::RequestKind::kLatencyFrontier;
  request.spec = test::motivational_spec();
  // Close pairs must share a resource class (Rule 2 assumes ot(i)=ot(j)).
  for (dfg::OpId i = 0; i < request.spec.graph.num_ops(); ++i) {
    for (dfg::OpId j = i + 1; j < request.spec.graph.num_ops(); ++j) {
      if (request.spec.closely_related.size() < 2 &&
          dfg::resource_class_of(request.spec.graph.op(i).type) ==
              dfg::resource_class_of(request.spec.graph.op(j).type)) {
        request.spec.closely_related.push_back({i, j});
      }
    }
  }
  request.spec.rules.recovery_close_pairs = false;
  request.spec.max_instances_per_offer = 2;
  request.spec.class_latency = {1, 2, 1};
  request.strategy = core::Strategy::kHeuristic;
  request.limits.time_limit_seconds = 7.25;
  request.limits.csp_node_limit = 12345;
  request.limits.heuristic_restarts = 9;
  request.limits.heuristic_node_limit = 4321;
  request.limits.max_combos = 777;
  request.parallelism.threads = 4;
  request.pruning.dominance_cache = false;
  request.pruning.static_screens = false;
  request.pruning.nogood_learning = false;
  request.pruning.cost_bounds = false;
  request.portfolio.enabled = true;
  request.observability.metrics = true;
  request.seed = 99;
  request.lambda_total = 8;
  request.sweep_values = {8, 10, 12};
  request.banned = {{1, dfg::ResourceClass::kAdder},
                    {2, dfg::ResourceClass::kMultiplier}};
  return request;
}

TEST(WireRequestTest, RoundTripPreservesEveryField) {
  const core::SynthesisRequest request = fully_loaded_request();
  const std::string wire = serialize_request(request);

  core::SynthesisRequest parsed;
  std::string error;
  ASSERT_TRUE(parse_request(wire, &parsed, &error)) << error;

  EXPECT_EQ(parsed.kind, core::RequestKind::kLatencyFrontier);
  EXPECT_EQ(parsed.strategy, core::Strategy::kHeuristic);
  EXPECT_DOUBLE_EQ(parsed.limits.time_limit_seconds, 7.25);
  EXPECT_EQ(parsed.limits.csp_node_limit, 12345);
  EXPECT_EQ(parsed.limits.max_combos, 777);
  EXPECT_EQ(parsed.parallelism.threads, 4);
  EXPECT_FALSE(parsed.pruning.dominance_cache);
  EXPECT_TRUE(parsed.portfolio.enabled);
  EXPECT_TRUE(parsed.observability.metrics);
  EXPECT_EQ(parsed.seed, 99u);
  EXPECT_EQ(parsed.lambda_total, 8);
  EXPECT_EQ(parsed.sweep_values, (std::vector<long long>{8, 10, 12}));
  EXPECT_EQ(parsed.banned, request.banned);
  EXPECT_EQ(parsed.spec.closely_related, request.spec.closely_related);
  EXPECT_FALSE(parsed.spec.rules.recovery_close_pairs);

  // The byte-stability contract.
  EXPECT_EQ(serialize_request(parsed), wire);
}

TEST(WireRequestTest, MinimalDocumentTakesStructDefaults) {
  Json doc = Json::object();
  doc.set("schema_version", kSchemaVersion);
  doc.set("spec", spec_to_json(test::easy_section5_spec()));

  core::SynthesisRequest parsed;
  std::string error;
  ASSERT_TRUE(request_from_json(doc, &parsed, &error)) << error;
  const core::SynthesisRequest defaults;
  EXPECT_EQ(parsed.kind, core::RequestKind::kMinimize);
  EXPECT_EQ(parsed.strategy, core::Strategy::kExact);
  EXPECT_DOUBLE_EQ(parsed.limits.time_limit_seconds,
                   defaults.limits.time_limit_seconds);
  EXPECT_EQ(parsed.limits.max_combos, defaults.limits.max_combos);
  EXPECT_EQ(parsed.parallelism.threads, 1);
  EXPECT_TRUE(parsed.pruning.dominance_cache);
  EXPECT_FALSE(parsed.portfolio.enabled);
  EXPECT_FALSE(parsed.observability.metrics);
  EXPECT_EQ(parsed.seed, defaults.seed);
  EXPECT_TRUE(parsed.sweep_values.empty());
  EXPECT_TRUE(parsed.banned.empty());
}

TEST(WireRequestTest, UnknownFieldsEverywhereAreIgnored) {
  const core::SynthesisRequest request = fully_loaded_request();
  Json doc = request_to_json(request);
  // A field-adding version N+1 writer: new knobs at every level.
  doc.set("future_top_level", "surprise");
  Json limits = doc.get("limits");
  limits.set("future_budget", 1234);
  doc.set("limits", std::move(limits));
  Json spec = doc.get("spec");
  spec.set("future_constraint", Json::array());
  doc.set("spec", std::move(spec));

  core::SynthesisRequest parsed;
  std::string error;
  ASSERT_TRUE(request_from_json(doc, &parsed, &error)) << error;
  // Everything this reader understands is unchanged by the extras.
  EXPECT_EQ(serialize_request(parsed), serialize_request(request));
}

TEST(WireRequestTest, RetiredKnobsFromOlderWritersAreIgnored) {
  // Keys older writers emitted for options the engine no longer has: the
  // opt-in LP cost bound, the intra-palette split override and the
  // portfolio member toggles / SLS budgets.
  const core::SynthesisRequest request = fully_loaded_request();
  Json doc = request_to_json(request);
  Json limits = doc.get("limits");
  limits.set("intra_palette_split", 3);
  doc.set("limits", std::move(limits));
  Json pruning = doc.get("pruning");
  pruning.set("lp_bound", true);
  doc.set("pruning", std::move(pruning));
  Json portfolio = doc.get("portfolio");
  portfolio.set("greedy_member", false);
  portfolio.set("sls_member", false);
  portfolio.set("sls_restarts", 2);
  portfolio.set("sls_perturbations", 5);
  doc.set("portfolio", std::move(portfolio));

  core::SynthesisRequest parsed;
  std::string error;
  ASSERT_TRUE(request_from_json(doc, &parsed, &error)) << error;
  EXPECT_EQ(serialize_request(parsed), serialize_request(request));
}

TEST(WireRequestTest, RejectsMissingOrNewerSchemaVersion) {
  Json doc = request_to_json(fully_loaded_request());
  core::SynthesisRequest parsed;
  std::string error;

  doc.set("schema_version", kSchemaVersion + 1);
  EXPECT_FALSE(request_from_json(doc, &parsed, &error));
  EXPECT_NE(error.find("unsupported schema_version"), std::string::npos);

  doc.set("schema_version", "1");  // wrong type
  EXPECT_FALSE(request_from_json(doc, &parsed, &error));

  doc.set("schema_version", 0);
  EXPECT_FALSE(request_from_json(doc, &parsed, &error));

  Json versionless = Json::object();
  versionless.set("spec", spec_to_json(test::easy_section5_spec()));
  EXPECT_FALSE(request_from_json(versionless, &parsed, &error));
  EXPECT_NE(error.find("schema_version"), std::string::npos);
}

TEST(WireRequestTest, RejectsBadEnumsAndInvalidSpecs) {
  core::SynthesisRequest parsed;
  std::string error;

  Json doc = request_to_json(fully_loaded_request());
  doc.set("kind", "teleport");
  EXPECT_FALSE(request_from_json(doc, &parsed, &error));
  EXPECT_NE(error.find("kind"), std::string::npos);

  doc = request_to_json(fully_loaded_request());
  doc.set("strategy", "quantum");
  EXPECT_FALSE(request_from_json(doc, &parsed, &error));

  // An out-of-range vendor count fails spec validation, not a crash.
  doc = request_to_json(fully_loaded_request());
  Json spec = doc.get("spec");
  Json catalog = spec.get("catalog");
  catalog.set("num_vendors", 0);
  spec.set("catalog", std::move(catalog));
  doc.set("spec", std::move(spec));
  EXPECT_FALSE(request_from_json(doc, &parsed, &error));
  EXPECT_NE(error.find("num_vendors"), std::string::npos);
}

TEST(WireRequestTest, ParseRequestRejectsMalformedText) {
  core::SynthesisRequest parsed;
  std::string error;
  EXPECT_FALSE(parse_request("{not json", &parsed, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_request("[1,2,3]", &parsed, &error));
  EXPECT_FALSE(parse_request("", &parsed, &error));
}

// ---- response round trips -------------------------------------------------

TEST(WireResponseTest, SolvedResponseRoundTripsWithSolutionStatsMetrics) {
  core::SynthesisRequest request =
      core::make_request(test::easy_section5_spec());
  request.observability.metrics = true;
  const core::SynthesisResponse response = core::synthesize(request);
  ASSERT_TRUE(response.result.has_solution());
  ASSERT_FALSE(response.result.metrics.empty());

  const std::string wire = serialize_response(response);
  core::SynthesisResponse parsed;
  std::string error;
  ASSERT_TRUE(parse_response(wire, &parsed, &error)) << error;

  EXPECT_EQ(parsed.result.status, response.result.status);
  EXPECT_EQ(parsed.result.cost, response.result.cost);
  EXPECT_EQ(parsed.result.solution.licenses_used(request.spec),
            response.result.solution.licenses_used(request.spec));
  EXPECT_EQ(parsed.result.stats.combos_tried,
            response.result.stats.combos_tried);
  EXPECT_EQ(parsed.result.stats.nodes_total,
            response.result.stats.nodes_total);
  EXPECT_FALSE(parsed.result.metrics.empty());
  EXPECT_EQ(serialize_response(parsed), wire);
}

TEST(WireResponseTest, FrontierResponseRoundTripsPointForPoint) {
  core::SynthesisRequest request =
      core::make_request(test::easy_section5_spec());
  request.kind = core::RequestKind::kLatencyFrontier;
  request.sweep_values = {8, 9, 10};
  const core::SynthesisResponse response = core::synthesize(request);
  ASSERT_EQ(response.frontier.size(), 3u);

  const std::string wire = serialize_response(response);
  core::SynthesisResponse parsed;
  std::string error;
  ASSERT_TRUE(parse_response(wire, &parsed, &error)) << error;
  ASSERT_EQ(parsed.frontier.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed.frontier[i].constraint, response.frontier[i].constraint);
    EXPECT_EQ(parsed.frontier[i].result.status,
              response.frontier[i].result.status);
    EXPECT_EQ(parsed.frontier[i].result.cost, response.frontier[i].result.cost);
  }
  EXPECT_EQ(serialize_response(parsed), wire);
}

TEST(WireResponseTest, RejectsUnknownStatusAndBadBindings) {
  core::SynthesisResponse parsed;
  std::string error;

  Json doc = response_to_json(core::synthesize(
      core::make_request(test::easy_section5_spec())));
  Json result = doc.get("result");
  result.set("status", "excellent");
  doc.set("result", std::move(result));
  EXPECT_FALSE(response_from_json(doc, &parsed, &error));
  EXPECT_NE(error.find("status"), std::string::npos);

  // A binding naming an out-of-range op must be rejected, not written
  // out of bounds.
  doc = response_to_json(core::synthesize(
      core::make_request(test::easy_section5_spec())));
  result = doc.get("result");
  Json solution = result.get("solution");
  solution.set("num_ops", 1);
  result.set("solution", std::move(solution));
  doc.set("result", std::move(result));
  EXPECT_FALSE(response_from_json(doc, &parsed, &error));
}

// ---- property-style round trips -------------------------------------------

TEST(WirePropertyTest, RandomRequestsRoundTripByteIdentically) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    core::SynthesisRequest request;
    request.spec = rng.chance(0.5)
                       ? test::motivational_spec()
                       : test::easy_section5_spec(rng.chance(0.5));
    request.kind = static_cast<core::RequestKind>(
        rng.index(core::kNumRequestKinds));
    request.strategy = rng.chance(0.5) ? core::Strategy::kExact
                                       : core::Strategy::kHeuristic;
    request.limits.time_limit_seconds =
        static_cast<double>(rng.uniform_int(1, 1000)) / 8.0;
    request.limits.csp_node_limit =
        static_cast<long>(rng.uniform_int(1, 1 << 20));
    request.limits.heuristic_restarts =
        static_cast<int>(rng.uniform_int(1, 10));
    request.limits.max_combos = static_cast<long>(rng.uniform_int(1, 9999));
    request.parallelism.threads = static_cast<int>(rng.uniform_int(0, 7));
    request.pruning.dominance_cache = rng.chance(0.5);
    request.pruning.static_screens = rng.chance(0.5);
    request.pruning.nogood_learning = rng.chance(0.5);
    request.pruning.cost_bounds = rng.chance(0.5);
    request.portfolio.enabled = rng.chance(0.5);
    request.observability.metrics = rng.chance(0.5);
    request.seed = rng.next_u64();
    request.lambda_total = static_cast<int>(rng.uniform_int(0, 31));
    const std::size_t sweep_size = rng.index(5);
    for (std::size_t i = 0; i < sweep_size; ++i) {
      request.sweep_values.push_back(rng.uniform_int(1, 100000));
    }
    const std::size_t banned_size = rng.index(4);
    for (std::size_t i = 0; i < banned_size; ++i) {
      request.banned.insert(
          {static_cast<vendor::VendorId>(
               rng.index(request.spec.catalog.num_vendors())),
           static_cast<dfg::ResourceClass>(
               rng.index(dfg::kNumResourceClasses))});
    }

    const std::string wire = serialize_request(request);
    core::SynthesisRequest parsed;
    std::string error;
    ASSERT_TRUE(parse_request(wire, &parsed, &error))
        << "trial " << trial << ": " << error;
    ASSERT_EQ(serialize_request(parsed), wire) << "trial " << trial;
    // And the parsed request is semantically the one we sent.
    ASSERT_EQ(parsed.kind, request.kind) << "trial " << trial;
    ASSERT_EQ(parsed.sweep_values, request.sweep_values) << "trial " << trial;
    ASSERT_EQ(parsed.banned, request.banned) << "trial " << trial;
  }
}

// ---- warm snapshots -------------------------------------------------------

core::WarmSnapshot loaded_snapshot() {
  core::WarmSnapshot snapshot;
  snapshot.market = 0xfedcba9876543210ull;  // exercises the sign bit
  snapshot.version = 7;
  snapshot.cache.fingerprint = snapshot.market;
  snapshot.cache.offer_areas = {-1, 120, -1, 4075, 2000, 1500};
  core::CacheProof proof;
  proof.sig.masks = {0x8000000000000001ull, 0x6ull, 0x1ull};
  proof.sig.lambda_detection = 9;
  proof.sig.lambda_recovery = 11;
  proof.sig.area_limit = 400000;
  proof.combo_cost = 1234;
  snapshot.cache.proofs.push_back(proof);
  snapshot.nogoods.fingerprint = snapshot.market;
  snapshot.nogoods.offer_areas = snapshot.cache.offer_areas;
  core::SealedNogood sealed;
  sealed.guard = proof.sig;
  sealed.combo_cost = 777;
  sealed.nogood.lits.push_back(core::NogoodLit{3, 1, 0, 8});
  sealed.nogood.lits.push_back(core::NogoodLit{5, 0, 2, 4});
  snapshot.nogoods.entries.push_back(sealed);
  return snapshot;
}

TEST(WireWarmSnapshotTest, RoundTripsByteIdenticallyWithFullU64Range) {
  const core::WarmSnapshot snapshot = loaded_snapshot();
  const core::CacheProof& proof = snapshot.cache.proofs[0];
  const core::SealedNogood& sealed = snapshot.nogoods.entries[0];

  const std::string wire = serialize_warm_snapshot(snapshot);
  core::WarmSnapshot parsed;
  std::string error;
  ASSERT_TRUE(parse_warm_snapshot(wire, &parsed, &error)) << error;
  EXPECT_EQ(serialize_warm_snapshot(parsed), wire);
  EXPECT_EQ(parsed.market, snapshot.market);
  EXPECT_EQ(parsed.version, snapshot.version);
  ASSERT_EQ(parsed.cache.proofs.size(), 1u);
  EXPECT_EQ(parsed.cache.proofs[0].sig.masks, proof.sig.masks);
  EXPECT_EQ(parsed.cache.proofs[0].combo_cost, proof.combo_cost);
  ASSERT_EQ(parsed.nogoods.entries.size(), 1u);
  EXPECT_EQ(parsed.nogoods.entries[0].nogood, sealed.nogood);
  EXPECT_EQ(parsed.cache.offer_areas, snapshot.cache.offer_areas);
}

TEST(WireWarmSnapshotTest, RetiredLpMemosFromOlderWritersAreIgnored) {
  // Older writers also exported LP cost-bound memos under cache.lp_memos;
  // a reader must accept the list and keep every proof and nogood.
  const core::WarmSnapshot snapshot = loaded_snapshot();
  Json doc = warm_snapshot_to_json(snapshot);
  Json cache = doc.get("cache");
  Json memo = Json::object();
  memo.set("sig", cache.get("proofs").items()[0].get("sig"));
  memo.set("digest", "0xdeadbeefcafef00d");
  memo.set("bound", 999);
  Json memos = Json::array();
  memos.push_back(std::move(memo));
  cache.set("lp_memos", std::move(memos));
  doc.set("cache", std::move(cache));

  core::WarmSnapshot parsed;
  std::string error;
  ASSERT_TRUE(warm_snapshot_from_json(doc, &parsed, &error)) << error;
  ASSERT_EQ(parsed.cache.proofs.size(), 1u);
  EXPECT_EQ(parsed.cache.proofs[0].sig.masks,
            snapshot.cache.proofs[0].sig.masks);
  ASSERT_EQ(parsed.nogoods.entries.size(), 1u);
  EXPECT_EQ(parsed.nogoods.entries[0].nogood,
            snapshot.nogoods.entries[0].nogood);
  EXPECT_EQ(serialize_warm_snapshot(parsed),
            serialize_warm_snapshot(snapshot));
}

TEST(WireWarmSnapshotTest, TolerantReadsAndVersionDiscipline) {
  // Minimal document: absent lists come back empty.
  core::WarmSnapshot minimal;
  std::string error;
  ASSERT_TRUE(parse_warm_snapshot(
      "{\"schema_version\":1,\"market\":\"0x0000000000000001\","
      "\"unknown_field\":42}",
      &minimal, &error))
      << error;
  EXPECT_EQ(minimal.market, 1u);
  EXPECT_TRUE(minimal.cache.proofs.empty());
  EXPECT_TRUE(minimal.nogoods.entries.empty());

  // Newer schema rejected; missing market rejected; output untouched.
  core::WarmSnapshot untouched;
  untouched.market = 99;
  EXPECT_FALSE(parse_warm_snapshot(
      "{\"schema_version\":99,\"market\":\"0x1\"}", &untouched, &error));
  EXPECT_FALSE(
      parse_warm_snapshot("{\"schema_version\":1}", &untouched, &error));
  EXPECT_FALSE(parse_warm_snapshot("{not json", &untouched, &error));
  EXPECT_EQ(untouched.market, 99u);
}

}  // namespace
}  // namespace ht::service
