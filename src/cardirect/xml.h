// XML persistence for CARDIRECT configurations (paper §4).
//
// The paper stores a configuration as a simple XML document following this
// DTD (quoted verbatim from §4):
//
//   <!ELEMENT Image (Region+, Relation*)>
//   <!ATTLIST Image name CDATA #IMPLIED file CDATA #IMPLIED>
//   <!ELEMENT Region (Polygon*)>
//   <!ATTLIST Region id ID #REQUIRED name CDATA #IMPLIED color CDATA #IMPLIED>
//   <!ELEMENT Polygon (Edge, Edge, Edge, Edge*)>
//   <!ATTLIST Polygon id CDATA #REQUIRED>
//   <!ELEMENT Edge EMPTY>
//   <!ATTLIST Edge x CDATA #REQUIRED y CDATA #REQUIRED>
//   <!ELEMENT Relation EMPTY>
//   <!ATTLIST Relation type CDATA #REQUIRED
//             primary IDREF #REQUIRED reference IDREF #REQUIRED>
//
// (Each Edge element carries one vertex of the polygon ring.) The DTD has a
// fixed depth, so neither direction builds a tree: the reader
// (xml_reader.cc) is one pull loop over a from-scratch XML subset
// tokenizer — elements, attributes, comments, declarations, DOCTYPE, the
// five predefined entities and numeric character references — that binds
// each element into the Configuration, and the writer (xml_writer.cc)
// appends each element to one output string. A document states up to
// n·(n−1) relations, so the writer formats a <Relation>'s parts once per
// document — a type text per mask, a primary and a reference text per
// region — and sizes the string exactly with a first pass over the
// relations; each relation is then three appends.

#ifndef CARDIR_CARDIRECT_XML_H_
#define CARDIR_CARDIRECT_XML_H_

#include <string>
#include <string_view>

#include "cardirect/model.h"
#include "util/status.h"

namespace cardir {

/// Reads a document of the DTD above into a Configuration. The prologue
/// (XML declaration, DOCTYPE with internal subset, comments, processing
/// instructions) is skipped. An element outside its place in the DTD, an
/// undeclared or repeated attribute, a missing required attribute and
/// character data other than whitespace are ParseErrors naming the
/// offender (Polygon's id stays optional). Region geometry is validated;
/// Relation records referring to unknown region ids are rejected.
Result<Configuration> ConfigurationFromXml(std::string_view xml);

/// Writes a Configuration in the DTD shape, after an XML declaration.
std::string ConfigurationToXml(const Configuration& configuration);

/// File convenience wrappers.
Status SaveConfiguration(const Configuration& configuration,
                         const std::string& path);
Result<Configuration> LoadConfiguration(const std::string& path);

}  // namespace cardir

#endif  // CARDIR_CARDIRECT_XML_H_
