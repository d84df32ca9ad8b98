#include "query/parser.h"

#include <cctype>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/string_util.h"

namespace specqp {

namespace {

enum class TokenType {
  kKeywordSelect,
  kKeywordWhere,
  kVariable,   // payload: name without '?'
  kConstant,   // payload: term text without delimiters
  kStar,
  kLBrace,
  kRBrace,
  kDot,
  kEnd,
};

struct Token {
  TokenType type;
  std::string text;
  size_t offset;  // byte offset in the input, for error messages
};

bool IsBarewordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
         c == '#' || c == '-' || c == '/' || c == '@';
}

Status TokenizeError(std::string_view what, size_t offset) {
  return Status::InvalidArgument(
      StrFormat("parse error at byte %zu: %.*s", offset,
                static_cast<int>(what.size()), what.data()));
}

Result<std::vector<Token>> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '{') {
      tokens.push_back({TokenType::kLBrace, "{", i++});
      continue;
    }
    if (c == '}') {
      tokens.push_back({TokenType::kRBrace, "}", i++});
      continue;
    }
    if (c == '.') {
      tokens.push_back({TokenType::kDot, ".", i++});
      continue;
    }
    if (c == '*') {
      tokens.push_back({TokenType::kStar, "*", i++});
      continue;
    }
    if (c == '?') {
      const size_t start = ++i;
      while (i < n && IsBarewordChar(text[i])) ++i;
      if (i == start) return TokenizeError("empty variable name", start);
      tokens.push_back(
          {TokenType::kVariable, std::string(text.substr(start, i - start)),
           start - 1});
      continue;
    }
    if (c == '<') {
      const size_t start = ++i;
      while (i < n && text[i] != '>') ++i;
      if (i == n) return TokenizeError("unterminated '<'", start - 1);
      tokens.push_back(
          {TokenType::kConstant, std::string(text.substr(start, i - start)),
           start - 1});
      ++i;  // consume '>'
      continue;
    }
    if (c == '\'' || c == '"') {
      // Accept the ASCII quotes and the Unicode single quotes the paper's
      // typography uses (already normalised by the caller if needed).
      const char quote = c;
      const size_t start = ++i;
      while (i < n && text[i] != quote) ++i;
      if (i == n) return TokenizeError("unterminated quote", start - 1);
      tokens.push_back(
          {TokenType::kConstant, std::string(text.substr(start, i - start)),
           start - 1});
      ++i;
      continue;
    }
    if (IsBarewordChar(c)) {
      const size_t start = i;
      while (i < n && IsBarewordChar(text[i])) ++i;
      std::string word(text.substr(start, i - start));
      const std::string lower = AsciiToLower(word);
      if (lower == "select") {
        tokens.push_back({TokenType::kKeywordSelect, std::move(word), start});
      } else if (lower == "where") {
        tokens.push_back({TokenType::kKeywordWhere, std::move(word), start});
      } else {
        tokens.push_back({TokenType::kConstant, std::move(word), start});
      }
      continue;
    }
    return TokenizeError(StrFormat("unexpected character '%c'", c), i);
  }
  tokens.push_back({TokenType::kEnd, "", n});
  return tokens;
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, Dictionary* dict,
         const ParseOptions& options)
      : tokens_(std::move(tokens)), dict_(dict), options_(options) {}

  Result<Query> Parse() {
    Query query;

    SPECQP_RETURN_IF_ERROR(Expect(TokenType::kKeywordSelect, "SELECT"));

    // Projection: '*' or one or more variables.
    std::vector<std::string> proj_names;
    bool star = false;
    if (Peek().type == TokenType::kStar) {
      Advance();
      star = true;
    } else {
      while (Peek().type == TokenType::kVariable) {
        proj_names.push_back(Peek().text);
        Advance();
      }
      if (proj_names.empty()) {
        return Error("expected '*' or at least one ?variable after SELECT");
      }
    }

    SPECQP_RETURN_IF_ERROR(Expect(TokenType::kKeywordWhere, "WHERE"));
    SPECQP_RETURN_IF_ERROR(Expect(TokenType::kLBrace, "'{'"));

    // Patterns separated by '.', optional trailing '.'.
    while (true) {
      if (Peek().type == TokenType::kRBrace) break;
      TriplePattern pattern;
      SPECQP_ASSIGN_OR_RETURN(pattern.s, ParseTerm(&query));
      SPECQP_ASSIGN_OR_RETURN(pattern.p, ParseTerm(&query));
      SPECQP_ASSIGN_OR_RETURN(pattern.o, ParseTerm(&query));
      query.AddPattern(pattern);
      if (Peek().type == TokenType::kDot) {
        Advance();
        continue;
      }
      break;
    }

    SPECQP_RETURN_IF_ERROR(Expect(TokenType::kRBrace, "'}'"));
    if (Peek().type != TokenType::kEnd) {
      return Error("trailing input after '}'");
    }
    if (query.num_patterns() == 0) {
      return Error("query has no triple patterns");
    }

    // Resolve projection after all variables are registered so SELECT can
    // mention variables in any order.
    if (star) {
      for (VarId v = 0; v < query.num_vars(); ++v) query.AddProjection(v);
    } else {
      for (const std::string& name : proj_names) {
        const auto it = var_ids_.find(name);
        if (it == var_ids_.end()) {
          return Status::NotFound(
              StrFormat("unknown variable '?%s'", name.c_str()));
        }
        query.AddProjection(it->second);
      }
    }
    return query;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  Status Error(std::string_view message) const {
    return Status::InvalidArgument(
        StrFormat("parse error at byte %zu: %.*s", Peek().offset,
                  static_cast<int>(message.size()), message.data()));
  }

  Status Expect(TokenType type, std::string_view what) {
    if (Peek().type != type) {
      return Error(StrFormat("expected %.*s", static_cast<int>(what.size()),
                             what.data()));
    }
    Advance();
    return Status::Ok();
  }

  Result<PatternTerm> ParseTerm(Query* query) {
    const Token& tok = Peek();
    if (tok.type == TokenType::kVariable) {
      auto it = var_ids_.find(tok.text);
      if (it == var_ids_.end()) {
        // VarId kInvalidVarId marks "no variable", so the ids run out one
        // short of the VarId range.
        if (query->num_vars() >= kInvalidVarId) {
          return Error(StrFormat("more than %u distinct variables",
                                 static_cast<unsigned>(kInvalidVarId)));
        }
        it = var_ids_.emplace(tok.text, query->AddVariable(tok.text)).first;
      }
      Advance();
      return PatternTerm::Var(it->second);
    }
    if (tok.type == TokenType::kConstant) {
      TermId id;
      if (options_.intern_unknown_terms) {
        id = dict_->Intern(tok.text);
      } else {
        auto found = dict_->Find(tok.text);
        if (!found.ok()) {
          return Error(StrFormat("unknown term '%s' (not in the knowledge "
                                 "graph's dictionary)",
                                 tok.text.c_str()));
        }
        id = found.value();
      }
      Advance();
      return PatternTerm::Const(id);
    }
    return Error("expected a ?variable or a constant term");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Dictionary* dict_;
  ParseOptions options_;
  // Variable name -> VarId of the query being parsed. The keys view the
  // token texts, which tokens_ keeps in place for the parser's lifetime.
  std::unordered_map<std::string_view, VarId> var_ids_;
};

}  // namespace

Result<Query> ParseQuery(std::string_view text, Dictionary* dict,
                         const ParseOptions& options) {
  SPECQP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), dict, options);
  return parser.Parse();
}

Result<Query> ParseQuery(std::string_view text, const Dictionary& dict) {
  // With intern_unknown_terms == false the parser only calls Find(), so the
  // const_cast never results in mutation.
  ParseOptions options;
  options.intern_unknown_terms = false;
  return ParseQuery(text, const_cast<Dictionary*>(&dict), options);
}

}  // namespace specqp
