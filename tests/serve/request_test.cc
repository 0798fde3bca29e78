// The shared request decoder (serve/request.h): every field the wire
// protocol, cfcm_cli and `cfcm_serve client` accept is decoded here, so
// one table of valid, wrongly typed and out-of-range values covers all
// three front ends.
#include "serve/request.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace cfcm::serve {
namespace {

JsonValue ParseOrDie(const std::string& text) {
  StatusOr<JsonValue> parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.ok() ? *parsed : JsonValue();
}

// Runs the decoder that owns the fields of `op` ("staleness" is the
// solve request's staleness block).
Status DecodeFor(const std::string& op, const JsonValue& request) {
  if (op == "solve") return DecodeSolveJob(request).status();
  if (op == "staleness") return DecodeMaxStaleEpochs(request).status();
  if (op == "evaluate") return DecodeEvaluateJob(request).status();
  if (op == "augment") return DecodeAugmentJob(request).status();
  if (op == "mutate") return DecodeGraphDelta(request).status();
  if (op == "flightz") return DecodeFlightCount(request).status();
  if (op == "metrics") return DecodeMetricsFormat(request).status();
  return Status::InvalidArgument("no decoder for " + op);
}

struct FieldCase {
  const char* op;
  const char* members;  // JSON object members, without the braces
  const char* error;    // expected message; nullptr = decodes
};

const char kNodeIdError[] = "node ids must be integers in [0, 2147483647]";

const FieldCase kFieldCases[] = {
    // k: solve [1, 1e9], augment [1, 1e6].
    {"solve", R"("k":3)", nullptr},
    {"solve", R"("k":"3")", "'k' must be an integer"},
    {"solve", R"("k":0)", "'k' out of range"},
    {"solve", R"("k":4294967301)", "'k' out of range"},
    {"augment", R"("group":[0],"k":2)", nullptr},
    {"augment", R"("group":[0],"k":2.5)", "'k' must be an integer"},
    {"augment", R"("group":[0],"k":1000001)", "'k' out of range"},
    // eps in (0, 1].
    {"solve", R"("eps":0.5)", nullptr},
    {"solve", R"("eps":1)", nullptr},
    {"solve", R"("eps":"0.5")", "'eps' must be a number"},
    {"solve", R"("eps":7)", "'eps' must be in (0, 1]"},
    {"solve", R"("eps":0)", "'eps' must be in (0, 1]"},
    {"solve", R"("eps":-0.5)", "'eps' must be in (0, 1]"},
    // seed in [0, 2^63).
    {"solve", R"("seed":7)", nullptr},
    {"solve", R"("seed":1.5)", "'seed' must be an integer"},
    {"solve", R"("seed":-1)", "'seed' out of range"},
    {"evaluate", R"("group":[0],"seed":9)", nullptr},
    {"evaluate", R"("group":[0],"seed":"9")", "'seed' must be an integer"},
    {"evaluate", R"("group":[0],"seed":-3)", "'seed' out of range"},
    // probes in [0, 1e6].
    {"evaluate", R"("group":[0],"probes":32)", nullptr},
    {"evaluate", R"("group":[0],"probes":true)", "'probes' must be an integer"},
    {"evaluate", R"("group":[0],"probes":1000001)", "'probes' out of range"},
    // selection.
    {"solve", R"("selection":"exhaustive")", nullptr},
    {"solve", R"("selection":1)",
     R"('selection' must be "lazy" or "exhaustive")"},
    {"solve", R"("selection":"greedy")",
     R"('selection' must be "lazy" or "exhaustive")"},
    // solver_backend, on every op that takes it.
    {"solve", R"("solver_backend":"sparse_ldlt")", nullptr},
    {"solve", R"("solver_backend":3)",
     R"('solver_backend' must be one of "auto", "dense" (alias "full"), )"
     R"("sparse_ldlt", "cg")"},
    {"evaluate", R"("group":[0],"solver_backend":"cg")", nullptr},
    {"evaluate", R"("group":[0],"solver_backend":"lu")",
     R"('solver_backend' must be one of "auto", "dense" (alias "full"), )"
     R"("sparse_ldlt", "cg")"},
    {"augment", R"("group":[0],"solver_backend":"full")", nullptr},
    {"augment", R"("group":[0],"solver_backend":"bogus")",
     R"('solver_backend' must be one of "auto", "dense" (alias "full"), )"
     R"("sparse_ldlt", "cg")"},
    // warm: a boolean or auto/on/off.
    {"solve", R"("warm":true)", nullptr},
    {"solve", R"("warm":"auto")", nullptr},
    {"solve", R"("warm":1)",
     R"('warm' must be a boolean or "auto"/"on"/"off")"},
    {"solve", R"("warm":"sometimes")",
     R"('warm' must be a boolean or "auto"/"on"/"off")"},
    // staleness.max_epochs in [0, 64].
    {"staleness", R"("staleness":{"max_epochs":2})", nullptr},
    {"staleness", R"("staleness":3)",
     R"('staleness' must be an object {"max_epochs":E})"},
    {"staleness", R"("staleness":{"max_epochs":"2"})",
     "'max_epochs' must be an integer"},
    {"staleness", R"("staleness":{"max_epochs":65})",
     "'max_epochs' out of range"},
    // candidates.
    {"augment", R"("group":[0],"candidates":"any")", nullptr},
    {"augment", R"("group":[0],"candidates":1)",
     R"('candidates' must be "group" or "any")"},
    {"augment", R"("group":[0],"candidates":"none")",
     R"('candidates' must be "group" or "any")"},
    // apply.
    {"augment", R"("group":[0],"apply":true)", nullptr},
    {"augment", R"("group":[0],"apply":"true")", "'apply' must be a boolean"},
    {"augment", R"("group":[0],"apply":1)", "'apply' must be a boolean"},
    // group: required, node ids must fit NodeId.
    {"evaluate", R"("group":[0,33])", nullptr},
    {"evaluate", R"("group":"0,33")", "'group' must be an array of node ids"},
    {"evaluate", "", "'group' must be an array of node ids"},
    {"evaluate", R"("group":[2147483648])",
     "'group' node ids must be integers in [0, 2147483647]"},
    {"evaluate", R"("group":[-1])",
     "'group' node ids must be integers in [0, 2147483647]"},
    {"augment", R"("group":[0.5])",
     "'group' node ids must be integers in [0, 2147483647]"},
    {"augment", R"("group":[0,2147483648])",
     "'group' node ids must be integers in [0, 2147483647]"},
    // add: [u,v] or [u,v,w].
    {"mutate", R"("add":[[0,1],[0,2,1.5]])", nullptr},
    {"mutate", R"("add":"x")", "'add' must be an array of [u,v] / [u,v,w]"},
    {"mutate", R"("add":[0,1])", "'add' entries must be arrays"},
    {"mutate", R"("add":[[0,1,2,3]])",
     "'add' entries must have 2 or 3 elements"},
    {"mutate", R"("add":[[0,2147483648]])",
     "'add' node ids must be integers in [0, 2147483647]"},
    {"mutate", R"("add":[[0,1,"w"]])", "'add' weights must be numbers"},
    // remove: [u,v] only.
    {"mutate", R"("remove":[[0,1]])", nullptr},
    {"mutate", R"("remove":[[0,"1"]])",
     "'remove' node ids must be integers in [0, 2147483647]"},
    {"mutate", R"("remove":[[0,1,2]])",
     "'remove' entries must have 2 elements"},
    {"mutate", R"("remove":[[2147483648,0]])",
     "'remove' node ids must be integers in [0, 2147483647]"},
    // reweight: [u,v,w] only.
    {"mutate", R"("reweight":[[0,1,2.5]])", nullptr},
    {"mutate", R"("reweight":[[0,1,"2"]])",
     "'reweight' weights must be numbers"},
    {"mutate", R"("reweight":[[0,1]])",
     "'reweight' entries must have 3 elements"},
    {"mutate", R"("reweight":[[0,2147483648,1]])",
     "'reweight' node ids must be integers in [0, 2147483647]"},
    // add_nodes in [0, 1e6]; some change is required.
    {"mutate", R"("add_nodes":2)", nullptr},
    {"mutate", R"("add_nodes":"2")", "'add_nodes' must be an integer"},
    {"mutate", R"("add_nodes":1000001)", "'add_nodes' out of range"},
    {"mutate", "",
     "mutate needs at least one of add_nodes/add/remove/reweight"},
    // flightz n in [1, 4096]; metrics format.
    {"flightz", R"("n":4)", nullptr},
    {"flightz", R"("n":"4")", "'n' must be an integer"},
    {"flightz", R"("n":0)", "'n' out of range"},
    {"metrics", R"("format":"prometheus")", nullptr},
    {"metrics", R"("format":"xml")",
     R"('format' must be "json" or "prometheus")"},
};

TEST(RequestTest, EveryFieldDecodesOrFailsWithItsMessage) {
  for (const FieldCase& c : kFieldCases) {
    const std::string text = std::string("{") + c.members + "}";
    const Status status = DecodeFor(c.op, ParseOrDie(text));
    if (c.error == nullptr) {
      EXPECT_TRUE(status.ok()) << c.op << " " << text << ": "
                               << status.ToString();
      continue;
    }
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << c.op << " " << text;
    EXPECT_EQ(status.message(), c.error) << c.op << " " << text;
  }
}

TEST(RequestTest, AbsentFieldsTakeTheProtocolDefaults) {
  const JsonValue empty = ParseOrDie("{}");
  StatusOr<engine::SolveJob> solve = DecodeSolveJob(empty);
  ASSERT_TRUE(solve.ok());
  EXPECT_EQ(solve->algorithm, "forest");
  EXPECT_EQ(solve->k, 1);
  EXPECT_EQ(solve->eps, 0.2);
  EXPECT_EQ(solve->seed, 1u);
  EXPECT_EQ(solve->selection, SelectionMode::kLazy);
  EXPECT_EQ(solve->solver_backend, SolverBackend::kAuto);
  EXPECT_EQ(solve->warm, WarmMode::kOff);
  EXPECT_EQ(*DecodeMaxStaleEpochs(empty), 0);
  EXPECT_EQ(*DecodeFlightCount(empty), 64u);
  EXPECT_EQ(*DecodeMetricsFormat(empty), "json");

  bool apply = true;
  StatusOr<engine::AugmentJob> augment =
      DecodeAugmentJob(ParseOrDie(R"({"group":[0]})"), &apply);
  ASSERT_TRUE(augment.ok());
  EXPECT_EQ(augment->k, 1);
  EXPECT_EQ(augment->candidates, EdgeCandidates::kToGroup);
  EXPECT_TRUE(apply) << "an absent 'apply' leaves the caller's value";
  ASSERT_TRUE(
      DecodeAugmentJob(ParseOrDie(R"({"group":[0],"apply":false})"), &apply)
          .ok());
  EXPECT_FALSE(apply);
}

TEST(RequestTest, ChecksRunInTheProtocolOrder) {
  // With several bad fields, the first one in the documented order wins.
  EXPECT_EQ(DecodeSolveJob(ParseOrDie(R"({"warm":1,"eps":7,"k":0})"))
                .status()
                .message(),
            "'k' out of range");
  EXPECT_EQ(DecodeEvaluateJob(ParseOrDie(R"({"solver_backend":1,"probes":-1})"))
                .status()
                .message(),
            "'probes' out of range");
  EXPECT_EQ(DecodeAugmentJob(ParseOrDie(R"({"group":[0],"solver_backend":1,)"
                                        R"("apply":1})"))
                .status()
                .message(),
            "'apply' must be a boolean");
  EXPECT_EQ(DecodeGraphDelta(ParseOrDie(R"({"add":1,"remove":1})"))
                .status()
                .message(),
            "'remove' must be an array of [u,v] / [u,v,w]");
}

using Flags = std::vector<std::pair<std::string, std::string>>;

TEST(RequestTest, FlagsAreTypedOnlyAndLeaveTheJudgingToTheDecoder) {
  // An out-of-range node id is a valid number on the command line; the
  // decoder rejects it, in a group and in an edge tuple alike.
  StatusOr<JsonValue> group =
      RequestFromFlags("evaluate", {{"group", "0,2147483648"}});
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(DecodeEvaluateJob(*group).status().message(),
            std::string("'group' ") + kNodeIdError);
  StatusOr<JsonValue> edge =
      RequestFromFlags("mutate", {{"remove", "2147483648,0"}});
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(DecodeGraphDelta(*edge).status().message(),
            std::string("'remove' ") + kNodeIdError);

  // Flag strings that are not values of the flag's kind fail right away;
  // a number of the wrong kind is the decoder's to reject.
  EXPECT_EQ(RequestFromFlags("solve", {{"k", "three"}}).status().message(),
            "bad number for --k: 'three'");
  EXPECT_EQ(RequestFromFlags("solve", {{"eps", "x"}}).status().message(),
            "bad number for --eps: 'x'");
  EXPECT_EQ(RequestFromFlags("augment", {{"apply", "yes"}}).status().message(),
            "--apply expects true or false, got 'yes'");
  EXPECT_EQ(RequestFromFlags("evaluate", {{"group", "0,x"}}).status().message(),
            "bad number for --group: 'x'");
  StatusOr<JsonValue> fractional_k = RequestFromFlags("solve", {{"k", "3.5"}});
  ASSERT_TRUE(fractional_k.ok());
  EXPECT_EQ(DecodeSolveJob(*fractional_k).status().message(),
            "'k' must be an integer");
  EXPECT_EQ(RequestFromFlags("solve", {{"bogus", "1"}}).status().message(),
            "unknown request flag --bogus");

  // A later flag overwrites an earlier one; edge flags append.
  StatusOr<JsonValue> repeated = RequestFromFlags(
      "mutate", {{"k", "1"}, {"k", "2"}, {"add", "0,1"}, {"add", "1,2,0.5"}});
  ASSERT_TRUE(repeated.ok());
  EXPECT_EQ(repeated->Serialize(),
            R"({"add":[[0,1],[1,2,0.5]],"k":2,"op":"mutate"})");
}

void ExpectSameSolve(const engine::SolveJob& a, const engine::SolveJob& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.eps, b.eps);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.selection, b.selection);
  EXPECT_EQ(a.solver_backend, b.solver_backend);
  EXPECT_EQ(a.warm, b.warm);
}

void ExpectSameDelta(const GraphDelta& a, const GraphDelta& b) {
  EXPECT_EQ(a.add_nodes(), b.add_nodes());
  EXPECT_EQ(a.remove_edges(), b.remove_edges());
  ASSERT_EQ(a.add_edges().size(), b.add_edges().size());
  for (std::size_t i = 0; i < a.add_edges().size(); ++i) {
    EXPECT_EQ(a.add_edges()[i].u, b.add_edges()[i].u);
    EXPECT_EQ(a.add_edges()[i].v, b.add_edges()[i].v);
    EXPECT_EQ(a.add_edges()[i].weight, b.add_edges()[i].weight);
  }
  ASSERT_EQ(a.reweight_edges().size(), b.reweight_edges().size());
  for (std::size_t i = 0; i < a.reweight_edges().size(); ++i) {
    EXPECT_EQ(a.reweight_edges()[i].u, b.reweight_edges()[i].u);
    EXPECT_EQ(a.reweight_edges()[i].v, b.reweight_edges()[i].v);
    EXPECT_EQ(a.reweight_edges()[i].weight, b.reweight_edges()[i].weight);
  }
}

struct FlagLine {
  const char* op;
  Flags flags;
  const char* json;  // the same request written as a wire line
};

// Every `cfcm_serve client --op ...` line of the CI server smoke.
const std::vector<FlagLine>& CiClientLines() {
  static const std::vector<FlagLine> lines = {
      {"load", {{"graph", "karate"}, {"source", "karate"}},
       R"({"op":"load","graph":"karate","source":"karate"})"},
      {"solve", {{"graph", "karate"}, {"k", "3"}, {"seed", "7"}},
       R"({"op":"solve","graph":"karate","k":3,"seed":7})"},
      {"mutate", {{"graph", "karate"}, {"remove", "0,1"}},
       R"({"op":"mutate","graph":"karate","remove":[[0,1]]})"},
      {"mutate", {{"graph", "karate"}, {"add", "0,1"}},
       R"({"op":"mutate","graph":"karate","add":[[0,1]]})"},
      {"mutate", {{"graph", "karate"}, {"reweight", "0,1,1.5"}},
       R"({"op":"mutate","graph":"karate","reweight":[[0,1,1.5]]})"},
      {"solve",
       {{"graph", "karate"}, {"algo", "forest"}, {"k", "3"}, {"seed", "7"},
        {"warm", "true"}},
       R"({"op":"solve","graph":"karate","algorithm":"forest","k":3,)"
       R"("seed":7,"warm":true})"},
      {"solve",
       {{"graph", "karate"}, {"algo", "forest"}, {"k", "3"}, {"seed", "9"}},
       R"({"op":"solve","graph":"karate","algorithm":"forest","k":3,)"
       R"("seed":9})"},
      {"mutate", {{"graph", "karate"}, {"reweight", "0,1,1.8"}},
       R"({"op":"mutate","graph":"karate","reweight":[[0,1,1.8]]})"},
      {"solve",
       {{"graph", "karate"}, {"algo", "forest"}, {"k", "3"}, {"seed", "9"},
        {"max-stale-epochs", "2"}},
       R"({"op":"solve","graph":"karate","algorithm":"forest","k":3,)"
       R"("seed":9,"staleness":{"max_epochs":2}})"},
      {"augment",
       {{"graph", "karate"}, {"group", "0,33"}, {"k", "1"},
        {"candidates", "any"}},
       R"({"op":"augment","graph":"karate","group":[0,33],"k":1,)"
       R"("candidates":"any"})"},
      {"solve",
       {{"graph", "karate"}, {"k", "3"}, {"seed", "7"}, {"trace", "true"},
        {"trace-id", "ci-trace"}},
       R"({"op":"solve","graph":"karate","k":3,"seed":7,"trace":true,)"
       R"("trace_id":"ci-trace"})"},
      {"metrics", {}, R"({"op":"metrics"})"},
      {"metrics", {{"format", "prometheus"}},
       R"({"op":"metrics","format":"prometheus"})"},
      {"solve",
       {{"graph", "karate"}, {"algo", "exact"}, {"k", "3"},
        {"solver-backend", "sparse_ldlt"}},
       R"({"op":"solve","graph":"karate","algorithm":"exact","k":3,)"
       R"("solver_backend":"sparse_ldlt"})"},
      {"flightz", {{"n", "4"}}, R"({"op":"flightz","n":4})"},
      {"shutdown", {}, R"({"op":"shutdown"})"},
  };
  return lines;
}

TEST(RequestTest, CiClientFlagLinesDecodeLikeTheirJsonLines) {
  for (const FlagLine& line : CiClientLines()) {
    SCOPED_TRACE(line.json);
    StatusOr<JsonValue> built = RequestFromFlags(line.op, line.flags);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const JsonValue literal = ParseOrDie(line.json);
    EXPECT_EQ(built->Serialize(), literal.Serialize());

    const std::string op = line.op;
    if (op == "solve") {
      StatusOr<engine::SolveJob> a = DecodeSolveJob(*built);
      StatusOr<engine::SolveJob> b = DecodeSolveJob(literal);
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectSameSolve(*a, *b);
      EXPECT_EQ(*DecodeMaxStaleEpochs(*built), *DecodeMaxStaleEpochs(literal));
    } else if (op == "augment") {
      bool apply_a = false;
      bool apply_b = false;
      StatusOr<engine::AugmentJob> a = DecodeAugmentJob(*built, &apply_a);
      StatusOr<engine::AugmentJob> b = DecodeAugmentJob(literal, &apply_b);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->group, b->group);
      EXPECT_EQ(a->k, b->k);
      EXPECT_EQ(a->candidates, b->candidates);
      EXPECT_EQ(a->solver_backend, b->solver_backend);
      EXPECT_EQ(apply_a, apply_b);
    } else if (op == "mutate") {
      StatusOr<GraphDelta> a = DecodeGraphDelta(*built);
      StatusOr<GraphDelta> b = DecodeGraphDelta(literal);
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectSameDelta(*a, *b);
    } else if (op == "flightz") {
      EXPECT_EQ(*DecodeFlightCount(*built), *DecodeFlightCount(literal));
    } else if (op == "metrics") {
      EXPECT_EQ(*DecodeMetricsFormat(*built), *DecodeMetricsFormat(literal));
    }
  }
}

TEST(RequestTest, EvaluateFlagsDecodeLikeTheirJsonLine) {
  StatusOr<JsonValue> built = RequestFromFlags(
      "evaluate", {{"graph", "g"}, {"group", "0,33,2"}, {"probes", "64"},
                   {"seed", "3"}, {"solver-backend", "cg"}});
  ASSERT_TRUE(built.ok());
  StatusOr<engine::EvaluateJob> a = DecodeEvaluateJob(*built);
  StatusOr<engine::EvaluateJob> b = DecodeEvaluateJob(ParseOrDie(
      R"({"op":"evaluate","graph":"g","group":[0,33,2],"probes":64,)"
      R"("seed":3,"solver_backend":"cg"})"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->group, b->group);
  EXPECT_EQ(a->probes, b->probes);
  EXPECT_EQ(a->seed, b->seed);
  EXPECT_EQ(a->solver_backend, b->solver_backend);
}

}  // namespace
}  // namespace cfcm::serve
