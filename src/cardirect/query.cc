#include "cardirect/query.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <type_traits>

#include "core/compute_cdr_percent.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

// A binary atom compiled once per query: its variables resolved to head
// indices, a direction atom's relation to its class-code accept mask. The
// search checks it at the depth where the later of its variables binds.
struct BinaryAtom {
  enum class Kind : uint8_t {
    kDirection,
    kTopology,
    kDistance,
    kNumericDistance,
    kPercent,
  };
  Kind kind = Kind::kDirection;
  uint16_t accept = 0;     // kDirection: ClassCodeAcceptMask(relation).
  uint32_t primary = 0;    // Head index of the primary variable…
  uint32_t reference = 0;  // …and of the reference variable.
  size_t condition = 0;    // Index into the query's list of this kind.
};

class Evaluator {
 public:
  Evaluator(const Configuration& configuration, const Query& query)
      : configuration_(configuration),
        query_(query),
        regions_(configuration.regions()),
        atoms_at_(query.variables.size()) {}

  Result<QueryResult> Run() {
    CARDIR_RETURN_IF_ERROR(Compile());
    // Only a query with a direction atom needs the decider, which profiles
    // every region of an uncomputed configuration.
    if (!query_.direction_conditions.empty()) {
      directions_.emplace(configuration_);
    }
    const size_t num_vars = query_.variables.size();
    // Per-variable candidate positions from unary conditions.
    std::vector<std::vector<uint32_t>> candidates(num_vars);
    for (size_t v = 0; v < num_vars; ++v) candidates[v] = CandidatesFor(v);
    QueryResult result;
    result.variables = query_.variables;
    std::vector<uint32_t> binding(num_vars, 0);
    const Status searched = Search(candidates, 0, &binding, &result);
    // One flush per query keeps the per-binding loop counter-free.
    CARDIR_METRIC_COUNT("query.bindings", bindings_);
    CARDIR_METRIC_COUNT("query.direction.implicit",
                        directions_ ? directions_->implicit_pairs() : 0);
    CARDIR_METRIC_COUNT("query.direction.explicit",
                        directions_ ? directions_->explicit_pairs() : 0);
    CARDIR_RETURN_IF_ERROR(searched);
    std::sort(result.rows.begin(), result.rows.end());
    return result;
  }

 private:
  // Resolves every binary atom's variables and files it under the depth of
  // its later variable, category by category, so each depth checks its
  // directions first, then topology, distance, distance() and percent().
  Status Compile() {
    using Kind = BinaryAtom::Kind;
    CARDIR_RETURN_IF_ERROR(File(query_.direction_conditions, Kind::kDirection));
    CARDIR_RETURN_IF_ERROR(File(query_.topology_conditions, Kind::kTopology));
    CARDIR_RETURN_IF_ERROR(File(query_.distance_conditions, Kind::kDistance));
    CARDIR_RETURN_IF_ERROR(
        File(query_.numeric_conditions, Kind::kNumericDistance));
    return File(query_.percent_conditions, Kind::kPercent);
  }

  template <typename Condition>
  Status File(const std::vector<Condition>& conditions, BinaryAtom::Kind kind) {
    for (size_t i = 0; i < conditions.size(); ++i) {
      const Condition& c = conditions[i];
      BinaryAtom atom;
      if constexpr (std::is_same_v<Condition, NumericCondition>) {
        if (c.kind != NumericCondition::Kind::kDistance) continue;  // area()
      }
      if constexpr (std::is_same_v<Condition, DirectionCondition>) {
        atom.accept = ClassCodeAcceptMask(c.relation);
      }
      atom.kind = kind;
      atom.condition = i;
      CARDIR_ASSIGN_OR_RETURN(atom.primary, VariableIndex(c.primary_variable));
      CARDIR_ASSIGN_OR_RETURN(atom.reference,
                              VariableIndex(c.reference_variable));
      atoms_at_[std::max(atom.primary, atom.reference)].push_back(atom);
    }
    return Status::Ok();
  }

  Result<uint32_t> VariableIndex(const std::string& variable) const {
    for (size_t i = 0; i < query_.variables.size(); ++i) {
      if (query_.variables[i] == variable) return static_cast<uint32_t>(i);
    }
    return Status::InvalidArgument("undeclared variable '" + variable + "'");
  }

  // Positions in regions() of the regions passing head variable v's unary
  // conditions (identity, thematic, area()).
  std::vector<uint32_t> CandidatesFor(size_t v) const {
    const std::string& variable = query_.variables[v];
    std::vector<const IdentityCondition*> identity;
    for (const IdentityCondition& c : query_.identity_conditions) {
      if (c.variable == variable) identity.push_back(&c);
    }
    std::vector<const ThematicCondition*> thematic;
    for (const ThematicCondition& c : query_.thematic_conditions) {
      if (c.variable == variable) thematic.push_back(&c);
    }
    std::vector<const NumericCondition*> area;
    for (const NumericCondition& c : query_.numeric_conditions) {
      if (c.kind == NumericCondition::Kind::kArea &&
          c.primary_variable == variable) {
        area.push_back(&c);
      }
    }
    auto passes = [&](const AnnotatedRegion& region) {
      for (const IdentityCondition* c : identity) {
        if (region.id != c->region && region.name != c->region) return false;
      }
      for (const ThematicCondition* c : thematic) {
        const std::string& actual =
            c->attribute == "color" ? region.color : region.name;
        if (actual != c->value) return false;
      }
      for (const NumericCondition* c : area) {
        const double value = region.geometry.Area();
        if (c->less_than ? !(value < c->value) : !(value > c->value)) {
          return false;
        }
      }
      return true;
    };
    std::vector<uint32_t> out;
    for (size_t i = 0; i < regions_.size(); ++i) {
      if (passes(regions_[i])) out.push_back(static_cast<uint32_t>(i));
    }
    return out;
  }

  // A direction atom on bound positions `primary` ≠ `reference`.
  bool DirectionHolds(const BinaryAtom& atom, uint32_t primary,
                      uint32_t reference) {
    return directions_->Holds(
        primary, reference,
        query_.direction_conditions[atom.condition].relation, atom.accept);
  }

  // Any binary atom on bound positions `primary` ≠ `reference`, from the
  // geometry.
  Result<bool> Holds(const BinaryAtom& atom, uint32_t primary,
                     uint32_t reference) {
    const AnnotatedRegion& p = regions_[primary];
    const AnnotatedRegion& r = regions_[reference];
    switch (atom.kind) {
      case BinaryAtom::Kind::kDirection:
        return DirectionHolds(atom, primary, reference);
      case BinaryAtom::Kind::kTopology: {
        CARDIR_ASSIGN_OR_RETURN(TopologicalRelation actual,
                                ComputeTopology(p.geometry, r.geometry));
        return actual == query_.topology_conditions[atom.condition].relation;
      }
      case BinaryAtom::Kind::kDistance: {
        CARDIR_ASSIGN_OR_RETURN(DistanceRelation actual,
                                ComputeDistanceRelation(p.geometry, r.geometry));
        return actual == query_.distance_conditions[atom.condition].relation;
      }
      case BinaryAtom::Kind::kNumericDistance: {
        const NumericCondition& c = query_.numeric_conditions[atom.condition];
        CARDIR_ASSIGN_OR_RETURN(double distance,
                                MinimumDistance(p.geometry, r.geometry));
        return c.less_than ? distance < c.value : distance > c.value;
      }
      case BinaryAtom::Kind::kPercent: {
        const PercentCondition& c = query_.percent_conditions[atom.condition];
        CARDIR_ASSIGN_OR_RETURN(PercentageMatrix matrix,
                                ComputeCdrPercent(p.geometry, r.geometry));
        const double percent = matrix.at(c.tile);
        return c.less_than ? percent < c.value : percent > c.value;
      }
    }
    return false;  // Unreachable for valid kinds.
  }

  // Binds head variable `depth` to each of its candidates in turn and
  // checks the atoms filed under it. A binary atom rejects a binding of
  // both its variables to one region.
  Status Search(const std::vector<std::vector<uint32_t>>& candidates,
                size_t depth, std::vector<uint32_t>* binding,
                QueryResult* result) {
    if (depth == binding->size()) {
      QueryRow row;
      row.region_ids.reserve(binding->size());
      for (const uint32_t position : *binding) {
        row.region_ids.push_back(regions_[position].id);
      }
      result->rows.push_back(std::move(row));
      return Status::Ok();
    }
    const std::vector<BinaryAtom>& atoms = atoms_at_[depth];
    bindings_ += candidates[depth].size();
    for (const uint32_t candidate : candidates[depth]) {
      (*binding)[depth] = candidate;
      bool holds = true;
      for (const BinaryAtom& atom : atoms) {
        const uint32_t primary = (*binding)[atom.primary];
        const uint32_t reference = (*binding)[atom.reference];
        if (primary == reference) {
          holds = false;
        } else if (atom.kind == BinaryAtom::Kind::kDirection) {
          // The hot atom skips Holds' Result.
          holds = DirectionHolds(atom, primary, reference);
        } else {
          CARDIR_ASSIGN_OR_RETURN(holds, Holds(atom, primary, reference));
        }
        if (!holds) break;
      }
      if (holds) {
        CARDIR_RETURN_IF_ERROR(Search(candidates, depth + 1, binding, result));
      }
    }
    return Status::Ok();
  }

  const Configuration& configuration_;
  const Query& query_;
  const std::vector<AnnotatedRegion>& regions_;
  // Binary atoms by the head index of their later variable.
  std::vector<std::vector<BinaryAtom>> atoms_at_;
  // Decides every direction pair; engaged when the query has a direction
  // atom.
  std::optional<DirectionDecider> directions_;
  uint64_t bindings_ = 0;  // Candidates bound, over all depths.
};

}  // namespace

DirectionDecider::DirectionDecider(const Configuration& configuration)
    : regions_(configuration.regions()) {
  if (const DeltaEngine* engine = configuration.delta_engine()) {
    profile_ = &engine->store().profile();
    poly_ = &engine->plan().poly;
    return;
  }
  std::vector<Box> boxes;
  std::vector<const Region*> geometries;
  boxes.reserve(regions_.size());
  geometries.reserve(regions_.size());
  for (const AnnotatedRegion& region : regions_) {
    boxes.push_back(region.geometry.BoundingBox());
    geometries.push_back(&region.geometry);
  }
  built_profile_ = RegionProfile::FromBoxes(boxes);
  built_poly_.Build(geometries);
}

uint16_t DirectionDecider::Resolve(uint8_t code, size_t x, size_t y) {
  return ResolveExplicitMask(code, regions_[x].geometry, profile_->box(y),
                             *profile_, x, y, *poly_, &cdr_metrics_,
                             &scratch_);
}

Result<Query> Query::Parse(std::string_view text) {
  CARDIR_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  return QueryParser(std::move(tokens)).Parse();
}

Result<QueryResult> EvaluateQuery(const Configuration& configuration,
                                  const Query& query) {
  CARDIR_TRACE_SPAN("query.eval");
  return Evaluator(configuration, query).Run();
}

Result<QueryResult> EvaluateQuery(const Configuration& configuration,
                                  std::string_view query_text) {
  CARDIR_ASSIGN_OR_RETURN(Query query, Query::Parse(query_text));
  return EvaluateQuery(configuration, query);
}

}  // namespace cardir
