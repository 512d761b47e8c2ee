#include "cardirect/constraint_file.h"

#include <map>

#include "util/string_util.h"

namespace cardir {

Result<ConstraintNetwork> ParseConstraintFile(std::string_view text) {
  ConstraintNetwork network;
  std::map<std::string, int> variables;
  int line_number = 0;
  auto variable_of = [&](const std::string& name) -> Result<int> {
    auto it = variables.find(name);
    if (it != variables.end()) return it->second;
    if (network.variable_count() == kMaxConstraintVariables) {
      return Status::ParseError(
          StrFormat("line %d: more than %d variables", line_number,
                    kMaxConstraintVariables));
    }
    return variables.emplace(name, network.AddVariable(name)).first->second;
  };

  for (const std::string& raw_line : StrSplit(text, '\n')) {
    ++line_number;
    std::string_view line(raw_line);
    // Strip comments and whitespace.
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = StripWhitespace(line);
    if (line.empty()) continue;
    // Three space-separated fields: primary, relation, reference. The
    // relation may contain spaces only inside braces; normalise by finding
    // the first and last space.
    const size_t first_space = line.find(' ');
    const size_t last_space = line.rfind(' ');
    if (first_space == std::string_view::npos || first_space == last_space) {
      return Status::ParseError(
          StrFormat("line %d: expected '<id> <relation> <id>'", line_number));
    }
    const std::string primary(StripWhitespace(line.substr(0, first_space)));
    const std::string reference(StripWhitespace(line.substr(last_space + 1)));
    const std::string_view relation_text = StripWhitespace(
        line.substr(first_space + 1, last_space - first_space - 1));
    if (primary.empty() || reference.empty() || relation_text.empty()) {
      return Status::ParseError(
          StrFormat("line %d: expected '<id> <relation> <id>'", line_number));
    }
    if (primary == reference) {
      return Status::ParseError(
          StrFormat("line %d: self-constraints are not supported",
                    line_number));
    }
    auto relation = DisjunctiveRelation::Parse(relation_text);
    if (!relation.ok()) {
      return Status::ParseError(StrFormat("line %d: %s", line_number,
                                          relation.status().message().c_str()));
    }
    // Sequenced explicitly: argument evaluation order is unspecified, and
    // variable creation order must follow appearance order.
    CARDIR_ASSIGN_OR_RETURN(const int primary_var, variable_of(primary));
    CARDIR_ASSIGN_OR_RETURN(const int reference_var, variable_of(reference));
    const Status added =
        network.AddConstraint(primary_var, reference_var, *relation);
    if (!added.ok()) {
      return Status::ParseError(
          StrFormat("line %d: %s", line_number, added.message().c_str()));
    }
  }
  if (network.variable_count() == 0) {
    return Status::ParseError("no constraints found");
  }
  return network;
}

std::string FormatNetworkModel(const ConstraintNetwork& network,
                               const NetworkModel& model) {
  std::string out;
  for (int v = 0; v < network.variable_count(); ++v) {
    const Region& region = model.regions[static_cast<size_t>(v)];
    out += StrFormat("%s: %zu rectangle(s)\n",
                     network.variable_name(v).c_str(),
                     region.polygon_count());
    for (const Polygon& polygon : region.polygons()) {
      const Box box = polygon.BoundingBox();
      out += StrFormat("  [%g, %g] x [%g, %g]\n", box.min_x(), box.max_x(),
                       box.min_y(), box.max_y());
    }
  }
  return out;
}

}  // namespace cardir
