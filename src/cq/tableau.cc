#include "cq/tableau.h"

#include <utility>

#include "base/check.h"

namespace cqa {

PointedDatabase ToTableau(const ConjunctiveQuery& q) {
  PointedDatabase out{Database(q.vocab(), q.num_variables()), {}};
  for (int v = 0; v < q.num_variables(); ++v) {
    if (!q.variable_name(v).empty()) {
      out.db.SetElementName(v, q.variable_name(v));
    }
  }
  for (const Atom& a : q.atoms()) {
    out.db.AddFact(a.rel, Tuple(a.vars.begin(), a.vars.end()));
  }
  out.distinguished.assign(q.free_variables().begin(),
                           q.free_variables().end());
  return out;
}

ConjunctiveQuery FromTableau(const PointedDatabase& tableau) {
  const Database& db = tableau.db;
  ConjunctiveQuery q(db.vocab());
  q.AddVariables(db.num_elements());
  for (Element e = 0; e < db.num_elements(); ++e) {
    q.SetVariableName(e, db.ElementName(e));
  }
  for (RelationId r = 0; r < db.vocab()->num_relations(); ++r) {
    for (Tuple t : db.facts(r)) q.AddAtom(r, std::move(t));
  }
  q.SetFreeVariables(
      std::vector<int>(tableau.distinguished.begin(),
                       tableau.distinguished.end()));
  q.Validate();
  return q;
}

Database ToBooleanTableau(const ConjunctiveQuery& q) {
  CQA_CHECK(q.IsBoolean());
  return ToTableau(q).db;
}

ConjunctiveQuery BooleanQueryFromStructure(const Database& db) {
  return FromTableau(PointedDatabase{db, {}});
}

}  // namespace cqa
