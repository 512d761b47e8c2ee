#include "cardirect/query.h"

#include <algorithm>
#include <cctype>

#include "core/compute_cdr.h"
#include "core/compute_cdr_percent.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace cardir {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokenType {
  kIdent,      // letters, digits, '_', '.', '-'
  kString,     // "..." (quotes stripped)
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kComma,
  kColon,
  kEquals,
  kLess,
  kGreater,
  kBar,
  kEnd,
};

struct Token {
  TokenType type;
  std::string text;
};

Result<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < input.size()) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    switch (c) {
      case '(': tokens.push_back({TokenType::kLParen, "("}); ++i; continue;
      case ')': tokens.push_back({TokenType::kRParen, ")"}); ++i; continue;
      case '{': tokens.push_back({TokenType::kLBrace, "{"}); ++i; continue;
      case '}': tokens.push_back({TokenType::kRBrace, "}"}); ++i; continue;
      case ',': tokens.push_back({TokenType::kComma, ","}); ++i; continue;
      case ':': tokens.push_back({TokenType::kColon, ":"}); ++i; continue;
      case '=': tokens.push_back({TokenType::kEquals, "="}); ++i; continue;
      case '<': tokens.push_back({TokenType::kLess, "<"}); ++i; continue;
      case '>': tokens.push_back({TokenType::kGreater, ">"}); ++i; continue;
      case '|': tokens.push_back({TokenType::kBar, "|"}); ++i; continue;
      case '"': {
        const size_t end = input.find('"', i + 1);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated string literal in query");
        }
        tokens.push_back(
            {TokenType::kString, std::string(input.substr(i + 1, end - i - 1))});
        i = end + 1;
        continue;
      }
      default: break;
    }
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
        c == '-') {
      const size_t start = i;
      while (i < input.size() &&
             (std::isalnum(static_cast<unsigned char>(input[i])) ||
              input[i] == '_' || input[i] == '.' || input[i] == '-')) {
        ++i;
      }
      tokens.push_back(
          {TokenType::kIdent, std::string(input.substr(start, i - start))});
      continue;
    }
    return Status::ParseError(StrFormat("unexpected character '%c' in query", c));
  }
  tokens.push_back({TokenType::kEnd, ""});
  return tokens;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class QueryParser {
 public:
  explicit QueryParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  Result<Query> Parse() {
    Query query;
    // Head: ( x1, x2, ... ) |
    CARDIR_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    for (;;) {
      CARDIR_ASSIGN_OR_RETURN(std::string var, ExpectIdent("variable name"));
      if (query.variables.size() == kMaxQueryVariables) {
        return Status::ParseError(StrFormat(
            "query declares more than %zu variables", kMaxQueryVariables));
      }
      if (std::find(query.variables.begin(), query.variables.end(), var) !=
          query.variables.end()) {
        return Status::ParseError("duplicate variable '" + var + "'");
      }
      query.variables.push_back(std::move(var));
      if (Peek().type == TokenType::kComma) {
        Advance();
        continue;
      }
      break;
    }
    CARDIR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    CARDIR_RETURN_IF_ERROR(Expect(TokenType::kBar, "'|'"));
    // Body: condition (',' condition)*
    for (;;) {
      CARDIR_RETURN_IF_ERROR(ParseCondition(&query));
      if (Peek().type == TokenType::kComma) {
        Advance();
        continue;
      }
      break;
    }
    if (Peek().type != TokenType::kEnd) {
      return Status::ParseError("unexpected trailing tokens in query");
    }
    return query;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Expect(TokenType type, const char* what) {
    if (Peek().type != type) {
      return Status::ParseError(StrFormat("expected %s near '%s'", what,
                                          Peek().text.c_str()));
    }
    Advance();
    return Status::Ok();
  }

  Result<std::string> ExpectIdent(const char* what) {
    if (Peek().type != TokenType::kIdent) {
      return Status::ParseError(StrFormat("expected %s near '%s'", what,
                                          Peek().text.c_str()));
    }
    return Advance().text;
  }

  Result<std::string> ExpectValue() {
    if (Peek().type == TokenType::kString || Peek().type == TokenType::kIdent) {
      return Advance().text;
    }
    return Status::ParseError("expected a value (identifier or string)");
  }

  Status CheckVariable(const Query& query, const std::string& var) {
    if (std::find(query.variables.begin(), query.variables.end(), var) ==
        query.variables.end()) {
      return Status::ParseError("undeclared variable '" + var + "'");
    }
    return Status::Ok();
  }

  // rel: IDENT (':' IDENT)* — every IDENT a tile name.
  Result<CardinalRelation> ParseBasicRelation() {
    CARDIR_ASSIGN_OR_RETURN(std::string first, ExpectIdent("tile name"));
    std::string spec = first;
    while (Peek().type == TokenType::kColon) {
      Advance();
      CARDIR_ASSIGN_OR_RETURN(std::string tile, ExpectIdent("tile name"));
      spec += ':';
      spec += tile;
    }
    return CardinalRelation::Parse(spec);
  }

  // Parses the trailing "< value" / "> value" of a numeric atom.
  Result<std::pair<bool, double>> ParseComparator() {
    bool less_than;
    if (Peek().type == TokenType::kLess) {
      less_than = true;
    } else if (Peek().type == TokenType::kGreater) {
      less_than = false;
    } else {
      return Status::ParseError("expected '<' or '>' in numeric condition");
    }
    Advance();
    CARDIR_ASSIGN_OR_RETURN(std::string number, ExpectIdent("number"));
    CARDIR_ASSIGN_OR_RETURN(double value, ParseDouble(number));
    return std::make_pair(less_than, value);
  }

  Status ParseCondition(Query* query) {
    CARDIR_ASSIGN_OR_RETURN(std::string first, ExpectIdent("condition"));
    if (Peek().type == TokenType::kLParen) {
      Advance();
      CARDIR_ASSIGN_OR_RETURN(std::string var, ExpectIdent("variable"));
      CARDIR_RETURN_IF_ERROR(CheckVariable(*query, var));
      if (first == "distance") {
        // distance(x, y) < value
        CARDIR_RETURN_IF_ERROR(Expect(TokenType::kComma, "','"));
        CARDIR_ASSIGN_OR_RETURN(std::string var2, ExpectIdent("variable"));
        CARDIR_RETURN_IF_ERROR(CheckVariable(*query, var2));
        CARDIR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        CARDIR_ASSIGN_OR_RETURN(auto cmp, ParseComparator());
        query->numeric_conditions.push_back(
            {NumericCondition::Kind::kDistance, var, var2, cmp.first,
             cmp.second});
        return Status::Ok();
      }
      if (first == "percent") {
        // percent(x, TILE, y) < value
        CARDIR_RETURN_IF_ERROR(Expect(TokenType::kComma, "','"));
        CARDIR_ASSIGN_OR_RETURN(std::string tile_name,
                                ExpectIdent("tile name"));
        Tile tile;
        if (!ParseTile(tile_name, &tile)) {
          return Status::ParseError("unknown tile '" + tile_name +
                                    "' in percent()");
        }
        CARDIR_RETURN_IF_ERROR(Expect(TokenType::kComma, "','"));
        CARDIR_ASSIGN_OR_RETURN(std::string var2, ExpectIdent("variable"));
        CARDIR_RETURN_IF_ERROR(CheckVariable(*query, var2));
        CARDIR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        if (var == var2) {
          return Status::ParseError(
              "percent() requires two distinct variables");
        }
        CARDIR_ASSIGN_OR_RETURN(auto cmp, ParseComparator());
        query->percent_conditions.push_back(
            {var, tile, var2, cmp.first, cmp.second});
        return Status::Ok();
      }
      CARDIR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      if (first == "area") {
        // area(x) < value
        CARDIR_ASSIGN_OR_RETURN(auto cmp, ParseComparator());
        query->numeric_conditions.push_back({NumericCondition::Kind::kArea,
                                             var, "", cmp.first, cmp.second});
        return Status::Ok();
      }
      // attribute(x) = value
      CARDIR_RETURN_IF_ERROR(Expect(TokenType::kEquals, "'='"));
      CARDIR_ASSIGN_OR_RETURN(std::string value, ExpectValue());
      if (first != "color" && first != "name") {
        return Status::ParseError(
            "unknown attribute '" + first +
            "' (supported: color, name, area, distance, percent)");
      }
      query->thematic_conditions.push_back({var, first, value});
      return Status::Ok();
    }
    if (Peek().type == TokenType::kEquals) {
      // x = region
      Advance();
      CARDIR_ASSIGN_OR_RETURN(std::string value, ExpectValue());
      CARDIR_RETURN_IF_ERROR(CheckVariable(*query, first));
      query->identity_conditions.push_back({first, value});
      return Status::Ok();
    }
    // Binary atoms: x <relation> y. The relation is a topological keyword,
    // a distance keyword, or a (possibly disjunctive) cardinal relation.
    CARDIR_RETURN_IF_ERROR(CheckVariable(*query, first));
    TopologicalRelation topological;
    DistanceRelation distance;
    const bool is_topological =
        Peek().type == TokenType::kIdent &&
        ParseTopologicalRelation(Peek().text, &topological);
    const bool is_distance = !is_topological &&
                             Peek().type == TokenType::kIdent &&
                             ParseDistanceRelation(Peek().text, &distance);
    DisjunctiveRelation relation;
    if (is_topological || is_distance) {
      Advance();
    } else if (Peek().type == TokenType::kLBrace) {
      Advance();
      for (;;) {
        CARDIR_ASSIGN_OR_RETURN(CardinalRelation basic, ParseBasicRelation());
        relation.Add(basic);
        if (Peek().type == TokenType::kComma) {
          Advance();
          continue;
        }
        break;
      }
      CARDIR_RETURN_IF_ERROR(Expect(TokenType::kRBrace, "'}'"));
    } else {
      CARDIR_ASSIGN_OR_RETURN(CardinalRelation basic, ParseBasicRelation());
      relation.Add(basic);
    }
    CARDIR_ASSIGN_OR_RETURN(std::string reference, ExpectIdent("variable"));
    CARDIR_RETURN_IF_ERROR(CheckVariable(*query, reference));
    if (first == reference) {
      return Status::ParseError(
          "binary atoms require two distinct variables");
    }
    if (is_topological) {
      query->topology_conditions.push_back({first, reference, topological});
    } else if (is_distance) {
      query->distance_conditions.push_back({first, reference, distance});
    } else {
      query->direction_conditions.push_back({first, reference, relation});
    }
    return Status::Ok();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

class Evaluator {
 public:
  Evaluator(const Configuration& configuration, const Query& query)
      : configuration_(configuration), query_(query) {}

  Result<QueryResult> Run() {
    const size_t num_vars = query_.variables.size();
    // Per-variable candidate sets from unary conditions.
    std::vector<std::vector<const AnnotatedRegion*>> candidates(num_vars);
    for (size_t v = 0; v < num_vars; ++v) {
      CARDIR_ASSIGN_OR_RETURN(candidates[v],
                              CandidatesFor(query_.variables[v]));
    }
    QueryResult result;
    result.variables = query_.variables;
    std::vector<const AnnotatedRegion*> binding(num_vars, nullptr);
    CARDIR_RETURN_IF_ERROR(Search(candidates, 0, &binding, &result));
    std::sort(result.rows.begin(), result.rows.end());
    return result;
  }

 private:
  Result<std::vector<const AnnotatedRegion*>> CandidatesFor(
      const std::string& variable) {
    std::vector<const AnnotatedRegion*> out;
    for (const AnnotatedRegion& region : configuration_.regions()) {
      bool ok = true;
      for (const IdentityCondition& c : query_.identity_conditions) {
        if (c.variable != variable) continue;
        if (region.id != c.region && region.name != c.region) ok = false;
      }
      for (const ThematicCondition& c : query_.thematic_conditions) {
        if (c.variable != variable) continue;
        const std::string& actual =
            c.attribute == "color" ? region.color : region.name;
        if (actual != c.value) ok = false;
      }
      for (const NumericCondition& c : query_.numeric_conditions) {
        if (c.kind != NumericCondition::Kind::kArea ||
            c.primary_variable != variable) {
          continue;
        }
        const double area = region.geometry.Area();
        if (c.less_than ? !(area < c.value) : !(area > c.value)) ok = false;
      }
      if (ok) out.push_back(&region);
    }
    return out;
  }

  // The relation primary R reference: stored record if available, else
  // computed on the fly.
  Result<CardinalRelation> RelationBetween(const AnnotatedRegion* primary,
                                           const AnnotatedRegion* reference) {
    std::optional<CardinalRelation> stored =
        configuration_.StoredRelation(primary->id, reference->id);
    if (stored.has_value()) return *stored;
    return ComputeCdr(primary->geometry, reference->geometry);
  }

  // Checks every binary atom whose variables are both bound, with `latest`
  // being the most recently bound variable index.
  Result<bool> BinaryAtomsHold(
      const std::vector<const AnnotatedRegion*>& binding, size_t latest) {
    // Returns true when this atom must be checked now and both sides bound.
    auto relevant = [&](const std::string& pv, const std::string& rv,
                        size_t* p, size_t* r) {
      *p = VariableIndex(pv);
      *r = VariableIndex(rv);
      if (*p != latest && *r != latest) return false;
      return binding[*p] != nullptr && binding[*r] != nullptr;
    };
    size_t p, r;
    for (const DirectionCondition& c : query_.direction_conditions) {
      if (!relevant(c.primary_variable, c.reference_variable, &p, &r)) {
        continue;
      }
      if (binding[p] == binding[r]) return false;
      CARDIR_ASSIGN_OR_RETURN(CardinalRelation actual,
                              RelationBetween(binding[p], binding[r]));
      if (!c.relation.Contains(actual)) return false;
    }
    for (const TopologyCondition& c : query_.topology_conditions) {
      if (!relevant(c.primary_variable, c.reference_variable, &p, &r)) {
        continue;
      }
      if (binding[p] == binding[r]) return false;
      CARDIR_ASSIGN_OR_RETURN(
          TopologicalRelation actual,
          ComputeTopology(binding[p]->geometry, binding[r]->geometry));
      if (actual != c.relation) return false;
    }
    for (const DistanceCondition& c : query_.distance_conditions) {
      if (!relevant(c.primary_variable, c.reference_variable, &p, &r)) {
        continue;
      }
      if (binding[p] == binding[r]) return false;
      CARDIR_ASSIGN_OR_RETURN(
          DistanceRelation actual,
          ComputeDistanceRelation(binding[p]->geometry,
                                  binding[r]->geometry));
      if (actual != c.relation) return false;
    }
    for (const NumericCondition& c : query_.numeric_conditions) {
      if (c.kind != NumericCondition::Kind::kDistance) continue;
      if (!relevant(c.primary_variable, c.reference_variable, &p, &r)) {
        continue;
      }
      if (binding[p] == binding[r]) return false;
      CARDIR_ASSIGN_OR_RETURN(
          double distance,
          MinimumDistance(binding[p]->geometry, binding[r]->geometry));
      if (c.less_than ? !(distance < c.value) : !(distance > c.value)) {
        return false;
      }
    }
    for (const PercentCondition& c : query_.percent_conditions) {
      if (!relevant(c.primary_variable, c.reference_variable, &p, &r)) {
        continue;
      }
      if (binding[p] == binding[r]) return false;
      CARDIR_ASSIGN_OR_RETURN(
          PercentageMatrix matrix,
          ComputeCdrPercent(binding[p]->geometry, binding[r]->geometry));
      const double percent = matrix.at(c.tile);
      if (c.less_than ? !(percent < c.value) : !(percent > c.value)) {
        return false;
      }
    }
    return true;
  }

  size_t VariableIndex(const std::string& variable) const {
    for (size_t i = 0; i < query_.variables.size(); ++i) {
      if (query_.variables[i] == variable) return i;
    }
    CARDIR_CHECK(false) << "unbound variable slipped through parsing";
    return 0;
  }

  Status Search(const std::vector<std::vector<const AnnotatedRegion*>>& candidates,
                size_t depth, std::vector<const AnnotatedRegion*>* binding,
                QueryResult* result) {
    if (depth == binding->size()) {
      QueryRow row;
      row.region_ids.reserve(binding->size());
      for (const AnnotatedRegion* region : *binding) {
        row.region_ids.push_back(region->id);
      }
      result->rows.push_back(std::move(row));
      return Status::Ok();
    }
    for (const AnnotatedRegion* candidate : candidates[depth]) {
      (*binding)[depth] = candidate;
      CARDIR_ASSIGN_OR_RETURN(bool ok, BinaryAtomsHold(*binding, depth));
      if (ok) {
        CARDIR_RETURN_IF_ERROR(Search(candidates, depth + 1, binding, result));
      }
    }
    (*binding)[depth] = nullptr;
    return Status::Ok();
  }

  const Configuration& configuration_;
  const Query& query_;
};

}  // namespace

Result<Query> Query::Parse(std::string_view text) {
  CARDIR_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  return QueryParser(std::move(tokens)).Parse();
}

Result<QueryResult> EvaluateQuery(const Configuration& configuration,
                                  const Query& query) {
  return Evaluator(configuration, query).Run();
}

Result<QueryResult> EvaluateQuery(const Configuration& configuration,
                                  std::string_view query_text) {
  CARDIR_ASSIGN_OR_RETURN(Query query, Query::Parse(query_text));
  return EvaluateQuery(configuration, query);
}

}  // namespace cardir
