// Textual constraint networks for the `cardirect check` subcommand: a
// line-oriented format for cardinal direction constraint sets, the input of
// the consistency service summarised in the paper's §2 (after [21,22]).
//
//   # comment / blank lines ignored
//   a S b            # basic relation
//   b {N, N:NE} c    # disjunctive relation (no spaces inside one relation)
//
// Variables are created on first use, in order of appearance.

#ifndef CARDIR_CARDIRECT_CONSTRAINT_FILE_H_
#define CARDIR_CARDIRECT_CONSTRAINT_FILE_H_

#include <string>
#include <string_view>

#include "reasoning/constraint_network.h"
#include "util/status.h"

namespace cardir {

/// The most distinct variables a file may name: the network's closure
/// grows about as n⁴ on a chain (32 variables take seconds, 64 over a
/// minute).
inline constexpr int kMaxConstraintVariables = 32;

/// Parses the format above into a network; a line naming one variable too
/// many is a ParseError naming the line.
Result<ConstraintNetwork> ParseConstraintFile(std::string_view text);

/// Renders a model as a human-readable listing (one region per variable,
/// with its rectangles).
std::string FormatNetworkModel(const ConstraintNetwork& network,
                               const NetworkModel& model);

}  // namespace cardir

#endif  // CARDIR_CARDIRECT_CONSTRAINT_FILE_H_
