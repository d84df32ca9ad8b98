// Unit surface of the unified request API (core/request.h): token
// semantics, request helpers, Submit's immediate path, Explain, and the
// per-request execution overrides.

#include <future>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/request.h"
#include "test_util.h"

namespace specqp {
namespace {

using specqp::testing::MakeMusicFixture;
using specqp::testing::MusicFixture;

void ExpectSameRows(const std::vector<ScoredRow>& expected,
                    const std::vector<ScoredRow>& actual,
                    const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].bindings, expected[i].bindings) << label << " #" << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << label << " #" << i;
  }
}

TEST(CancellationTokenTest, EmptyTokenIsInert) {
  CancellationToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  token.RequestCancel();  // no-op, no crash
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.flag(), nullptr);
}

TEST(CancellationTokenTest, CopiesShareOneFlag) {
  CancellationToken token = CancellationToken::Create();
  ASSERT_TRUE(token.valid());
  EXPECT_FALSE(token.cancelled());
  CancellationToken copy = token;
  copy.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
}

TEST(QueryRequestTest, HelpersAndTimeout) {
  QueryRequest from_text =
      QueryRequest::FromText("SELECT ?s WHERE { ?s <p> <o> }", 7,
                             Strategy::kTrinit);
  EXPECT_FALSE(from_text.query.has_value());
  EXPECT_EQ(from_text.k, 7u);
  EXPECT_EQ(from_text.strategy, Strategy::kTrinit);
  EXPECT_FALSE(from_text.deadline.has_value());

  from_text.WithTimeout(std::chrono::milliseconds(50));
  ASSERT_TRUE(from_text.deadline.has_value());
  EXPECT_GT(*from_text.deadline, std::chrono::steady_clock::now());

  Query query;
  query.AddProjection(query.GetOrAddVariable("s"));
  const QueryRequest from_query = QueryRequest::FromQuery(query, 3);
  ASSERT_TRUE(from_query.query.has_value());
  EXPECT_EQ(from_query.k, 3u);
  EXPECT_EQ(from_query.strategy, Strategy::kSpecQp);
}

TEST(SubmitTest, ImmediateMatchesHelperExecute) {
  MusicFixture fx = MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  const Query query = fx.TypeQuery({"singer", "lyricist"});
  for (Strategy strategy :
       {Strategy::kSpecQp, Strategy::kTrinit, Strategy::kNoRelax}) {
    const QueryResponse expected = testing::Execute(engine, query, 5, strategy);
    QueryRequest request = QueryRequest::FromQuery(query, 5, strategy);
    request.admission = QueryRequest::Admission::kImmediate;
    std::future<QueryResponse> future = engine.Submit(std::move(request));
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "immediate submissions return a ready future";
    const QueryResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_EQ(response.k, 5u);
    EXPECT_EQ(response.strategy, strategy);
    EXPECT_EQ(response.window_size, 0u);
    EXPECT_FALSE(response.partial);
    ExpectSameRows(expected.rows, response.rows,
                   std::string(StrategyName(strategy)));
  }
}

TEST(SubmitTest, TextRequestsParseAndEcho) {
  MusicFixture fx = MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  QueryRequest request = QueryRequest::FromText(
      "SELECT ?s WHERE { ?s <rdf:type> <singer> . "
      "?s <rdf:type> <lyricist> }",
      5);
  request.tag = "request-42";
  request.admission = QueryRequest::Admission::kImmediate;
  const QueryResponse response = engine.Submit(std::move(request)).get();
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.tag, "request-42");
  EXPECT_FALSE(response.rows.empty());

  const auto expected = testing::ExecuteText(
      engine,
      "SELECT ?s WHERE { ?s <rdf:type> <singer> . "
      "?s <rdf:type> <lyricist> }",
      5, Strategy::kSpecQp);
  ASSERT_TRUE(expected.ok());
  ExpectSameRows(expected.value().rows, response.rows, "text request");
}

TEST(SubmitTest, ParseErrorAndBadKTerminateImmediately) {
  MusicFixture fx = MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  for (const QueryRequest::Admission admission :
       {QueryRequest::Admission::kImmediate,
        QueryRequest::Admission::kWindow}) {
    QueryRequest bad_text = QueryRequest::FromText("not a query", 5);
    bad_text.admission = admission;
    const QueryResponse parse_error = engine.Submit(std::move(bad_text)).get();
    EXPECT_FALSE(parse_error.ok());
    EXPECT_EQ(parse_error.status.code(), StatusCode::kInvalidArgument);

    QueryRequest bad_k =
        QueryRequest::FromQuery(fx.TypeQuery({"singer"}), /*k=*/0);
    bad_k.admission = admission;
    const QueryResponse k_error = engine.Submit(std::move(bad_k)).get();
    EXPECT_FALSE(k_error.ok());
    EXPECT_EQ(k_error.status.code(), StatusCode::kInvalidArgument);
  }
}

TEST(ExplainTest, MatchesPlanOnlyAndStaticPlans) {
  MusicFixture fx = MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  const Query query = fx.TypeQuery({"singer", "lyricist"});

  // Explain plans exactly what every execution path plans: immediate
  // Submit, windowed Submit, and a BatchExecutor batch.
  for (const Strategy strategy :
       {Strategy::kSpecQp, Strategy::kTrinit, Strategy::kNoRelax}) {
    const std::string label(StrategyName(strategy));
    const QueryResponse explained =
        engine.Explain(QueryRequest::FromQuery(query, 10, strategy));
    ASSERT_TRUE(explained.ok()) << label;
    EXPECT_TRUE(explained.rows.empty()) << label;

    QueryRequest immediate = QueryRequest::FromQuery(query, 10, strategy);
    immediate.admission = QueryRequest::Admission::kImmediate;
    std::vector<QueryResponse> executed;
    executed.push_back(engine.Submit(std::move(immediate)).get());
    std::future<QueryResponse> windowed =
        engine.Submit(QueryRequest::FromQuery(query, 10, strategy));
    engine.admission().Flush();
    executed.push_back(windowed.get());
    executed.push_back(
        testing::ExecuteBatch(engine, std::span<const Query>(&query, 1), 10,
                              strategy)
            .front());
    for (size_t path = 0; path < executed.size(); ++path) {
      const QueryResponse& reference = executed[path];
      ASSERT_TRUE(reference.ok()) << label << " path " << path;
      EXPECT_EQ(explained.plan.join_group, reference.plan.join_group)
          << label << " path " << path;
      EXPECT_EQ(explained.plan.singletons, reference.plan.singletons)
          << label << " path " << path;
      EXPECT_EQ(explained.diagnostics.decisions.size(),
                reference.diagnostics.decisions.size())
          << label << " path " << path;
      EXPECT_EQ(explained.diagnostics.eq_k, reference.diagnostics.eq_k)
          << label << " path " << path;
    }
    if (strategy == Strategy::kTrinit) {
      EXPECT_EQ(explained.plan.singletons.size(), query.num_patterns());
    } else if (strategy == Strategy::kNoRelax) {
      EXPECT_EQ(explained.plan.join_group.size(), query.num_patterns());
    }
  }

  // Text resolution and error propagation.
  const QueryResponse expected =
      engine.Explain(QueryRequest::FromQuery(query, 10));
  const QueryResponse text_explain = engine.Explain(QueryRequest::FromText(
      "SELECT ?s WHERE { ?s <rdf:type> <singer> . "
      "?s <rdf:type> <lyricist> }",
      10));
  ASSERT_TRUE(text_explain.ok());
  EXPECT_EQ(text_explain.plan.join_group, expected.plan.join_group);
  EXPECT_EQ(text_explain.plan.singletons, expected.plan.singletons);

  const QueryResponse bad = engine.Explain(QueryRequest::FromText("nope", 10));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
}

TEST(RequestStatusTest, NewCodesRoundTrip) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kCancelled), "CANCELLED");
  EXPECT_EQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
            "DEADLINE_EXCEEDED");
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace specqp
