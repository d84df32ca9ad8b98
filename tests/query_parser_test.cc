#include "query/parser.h"

#include <string>

#include <gtest/gtest.h>

namespace specqp {
namespace {

Dictionary MakeDict() {
  Dictionary dict;
  dict.Intern("rdf:type");
  dict.Intern("singer");
  dict.Intern("lyricist");
  dict.Intern("guitarist");
  dict.Intern("pianist");
  dict.Intern("hasTag");
  dict.Intern("#intoyouvideo");
  dict.Intern("#ariana");
  dict.Intern("dangerous");
  dict.Intern("plays");
  return dict;
}

TEST(ParserTest, PaperIntroQueryParses) {
  Dictionary dict = MakeDict();
  const auto result = ParseQuery(
      "SELECT ?s WHERE{"
      "?s 'rdf:type' <singer>."
      "?s 'rdf:type' <lyricist>."
      "?s 'rdf:type' <guitarist>."
      "?s 'rdf:type' <pianist>"
      "}",
      dict);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Query& q = result.value();
  EXPECT_EQ(q.num_patterns(), 4u);
  EXPECT_EQ(q.num_vars(), 1u);
  ASSERT_EQ(q.projection().size(), 1u);
  EXPECT_EQ(q.var_name(q.projection()[0]), "s");
  for (const TriplePattern& p : q.patterns()) {
    EXPECT_TRUE(p.s.is_variable());
    EXPECT_TRUE(p.p.is_constant());
    EXPECT_TRUE(p.o.is_constant());
    EXPECT_EQ(p.p.term(), dict.Find("rdf:type").value());
  }
}

TEST(ParserTest, TwitterQueryParses) {
  Dictionary dict = MakeDict();
  const auto result = ParseQuery(
      "SELECT ?s WHERE{"
      "?s <hasTag> <#intoyouvideo>."
      "?s <hasTag> <#ariana>."
      "?s <hasTag> <dangerous>"
      "}",
      dict);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_patterns(), 3u);
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  Dictionary dict = MakeDict();
  EXPECT_TRUE(
      ParseQuery("select ?s where { ?s <plays> ?o }", dict).ok());
  EXPECT_TRUE(
      ParseQuery("SeLeCt ?s WhErE { ?s <plays> ?o }", dict).ok());
}

TEST(ParserTest, StarProjectionSelectsAllVariables) {
  Dictionary dict = MakeDict();
  const auto result =
      ParseQuery("SELECT * WHERE { ?a <plays> ?b . ?b <plays> ?c }", dict);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().projection().size(), 3u);
}

TEST(ParserTest, MultipleProjectionVariables) {
  Dictionary dict = MakeDict();
  const auto result =
      ParseQuery("SELECT ?b ?a WHERE { ?a <plays> ?b }", dict);
  ASSERT_TRUE(result.ok());
  const Query& q = result.value();
  ASSERT_EQ(q.projection().size(), 2u);
  EXPECT_EQ(q.var_name(q.projection()[0]), "b");
  EXPECT_EQ(q.var_name(q.projection()[1]), "a");
}

TEST(ParserTest, TrailingDotAllowed) {
  Dictionary dict = MakeDict();
  EXPECT_TRUE(ParseQuery("SELECT ?s WHERE { ?s <plays> <singer> . }", dict)
                  .ok());
}

TEST(ParserTest, QuoteStylesAreEquivalent) {
  Dictionary dict = MakeDict();
  const auto angled =
      ParseQuery("SELECT ?s WHERE { ?s <plays> <singer> }", dict);
  const auto single =
      ParseQuery("SELECT ?s WHERE { ?s 'plays' 'singer' }", dict);
  const auto dbl =
      ParseQuery("SELECT ?s WHERE { ?s \"plays\" \"singer\" }", dict);
  const auto bare = ParseQuery("SELECT ?s WHERE { ?s plays singer }", dict);
  ASSERT_TRUE(angled.ok());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(dbl.ok());
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(angled.value().pattern(0).p.term(),
            single.value().pattern(0).p.term());
  EXPECT_EQ(angled.value().pattern(0).o.term(),
            dbl.value().pattern(0).o.term());
  EXPECT_EQ(angled.value().pattern(0).o.term(),
            bare.value().pattern(0).o.term());
}

TEST(ParserTest, SharedVariableGetsOneId) {
  Dictionary dict = MakeDict();
  const auto result = ParseQuery(
      "SELECT ?s WHERE { ?s <plays> <singer> . ?s <plays> <pianist> }", dict);
  ASSERT_TRUE(result.ok());
  const Query& q = result.value();
  EXPECT_EQ(q.num_vars(), 1u);
  EXPECT_EQ(q.pattern(0).s.var(), q.pattern(1).s.var());
}

TEST(ParserTest, UnknownTermIsError) {
  Dictionary dict = MakeDict();
  const auto result =
      ParseQuery("SELECT ?s WHERE { ?s <plays> <zither> }", dict);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("zither"), std::string::npos);
}

TEST(ParserTest, UnknownTermInternedWhenAllowed) {
  Dictionary dict = MakeDict();
  const size_t before = dict.size();
  ParseOptions options;
  options.intern_unknown_terms = true;
  const auto result =
      ParseQuery("SELECT ?s WHERE { ?s <plays> <zither> }", &dict, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(dict.size(), before + 1);
}

TEST(ParserTest, ErrorsCarryByteOffsets) {
  Dictionary dict = MakeDict();
  const auto result = ParseQuery("SELECT WHERE { ?s <plays> ?o }", dict);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("byte"), std::string::npos);
}

TEST(ParserTest, RejectsMissingSelect) {
  Dictionary dict = MakeDict();
  EXPECT_FALSE(ParseQuery("?s <plays> ?o", dict).ok());
}

TEST(ParserTest, RejectsMissingWhere) {
  Dictionary dict = MakeDict();
  EXPECT_FALSE(ParseQuery("SELECT ?s { ?s <plays> ?o }", dict).ok());
}

TEST(ParserTest, RejectsUnterminatedBrace) {
  Dictionary dict = MakeDict();
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s <plays> ?o", dict).ok());
}

TEST(ParserTest, RejectsEmptyPatternBlock) {
  Dictionary dict = MakeDict();
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { }", dict).ok());
}

TEST(ParserTest, RejectsIncompletePattern) {
  Dictionary dict = MakeDict();
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s <plays> }", dict).ok());
}

TEST(ParserTest, RejectsTrailingGarbage) {
  Dictionary dict = MakeDict();
  EXPECT_FALSE(
      ParseQuery("SELECT ?s WHERE { ?s <plays> ?o } extra", dict).ok());
}

TEST(ParserTest, RejectsUnknownProjectionVariable) {
  Dictionary dict = MakeDict();
  EXPECT_FALSE(ParseQuery("SELECT ?t WHERE { ?s <plays> ?o }", dict).ok());
}

TEST(ParserTest, RejectsEmptyVariableName) {
  Dictionary dict = MakeDict();
  EXPECT_FALSE(ParseQuery("SELECT ? WHERE { ?s <plays> ?o }", dict).ok());
}

TEST(ParserTest, RejectsUnterminatedIri) {
  Dictionary dict = MakeDict();
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s <plays ?o }", dict).ok());
}

TEST(ParserTest, RejectsUnterminatedQuote) {
  Dictionary dict = MakeDict();
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s 'plays ?o }", dict).ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  Dictionary dict = MakeDict();
  const std::string text =
      "SELECT ?s WHERE { ?s <rdf:type> <singer> . ?s <plays> <pianist> }";
  const auto first = ParseQuery(text, dict);
  ASSERT_TRUE(first.ok());
  const std::string rendered = first.value().ToString(dict);
  const auto second = ParseQuery(rendered, dict);
  ASSERT_TRUE(second.ok()) << rendered;
  EXPECT_EQ(second.value().num_patterns(), first.value().num_patterns());
  for (size_t i = 0; i < first.value().num_patterns(); ++i) {
    EXPECT_EQ(second.value().pattern(i).Key(),
              first.value().pattern(i).Key());
  }
}

// A query binding `num_vars` distinct variables, three per pattern, that
// selects all of them by name. A short last pattern is filled with <plays>.
std::string ManyVariablesQuery(size_t num_vars) {
  std::string select = "SELECT";
  std::string where = " WHERE {";
  for (size_t first = 0; first < num_vars; first += 3) {
    if (first > 0) where += " .";
    for (size_t v = first; v < first + 3; ++v) {
      if (v < num_vars) {
        const std::string var = " ?v" + std::to_string(v);
        select += var;
        where += var;
      } else {
        where += " <plays>";
      }
    }
  }
  return select + where + " }";
}

TEST(ParserTest, AcceptsTheLargestVariableCount) {
  Dictionary dict = MakeDict();
  const size_t num_vars = kInvalidVarId;  // 65,535: ids 0..65,534
  const auto result = ParseQuery(ManyVariablesQuery(num_vars), dict);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Query& q = result.value();
  EXPECT_EQ(q.num_vars(), num_vars);
  ASSERT_EQ(q.projection().size(), num_vars);
  EXPECT_EQ(q.projection().back(), num_vars - 1);
  EXPECT_EQ(q.var_name(static_cast<VarId>(num_vars - 1)), "v65534");
  EXPECT_EQ(q.pattern(q.num_patterns() - 1).o.var(), num_vars - 1);
}

TEST(ParserTest, RejectsOneVariableTooMany) {
  Dictionary dict = MakeDict();
  const auto result =
      ParseQuery(ManyVariablesQuery(size_t{kInvalidVarId} + 1), dict);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("distinct variables"),
            std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace specqp
