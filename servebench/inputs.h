// Seeded inputs of the serving benchmark: the hosted graph, the query
// pools and the stream of edges the writer publishes. The server only ever
// receives these facts and query texts; the same seed gives the same
// inputs.

#ifndef SERVEBENCH_INPUTS_H_
#define SERVEBENCH_INPUTS_H_

#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "data/database.h"

namespace servebench {

/// One request the clients send: rule text, answer mode, and the index of
/// its query shape in the workload's shape pool.
struct WireQuery {
  std::string text;
  std::string mode;  ///< "exact" | "under" | "over" | "bounds"
  int shape = 0;
};

using Edge = std::pair<int, int>;

/// A digraph over elements named v0..v{n-1} with exactly `m` distinct
/// edges, sampled uniformly: `loops` self-loops on distinct elements, the
/// rest non-loop edges.
cqa::Database RandomGraph(int n, int m, int loops, cqa::Rng* rng);

/// A digraph over elements named v0..v{n-1} in which every element has
/// exactly `degree` out-edges and `degree` in-edges (the union of `degree`
/// random permutations, none with a fixed point or a repeated edge), plus
/// `loops` self-loops on distinct elements. Fixed degrees keep the cost of
/// dense patterns from swinging with which elements happen to be hubs.
cqa::Database RegularGraph(int n, int degree, int loops, cqa::Rng* rng);

/// `count` distinct non-loop edges absent from `db`, in publish order.
std::vector<Edge> FreshEdges(const cqa::Database& db, int count,
                             cqa::Rng* rng);

/// "E(v3, v7)": the PUBLISH fact text of an edge.
std::string EdgeFact(const Edge& e);

/// Twelve exact-mode acyclic queries with one or two free variables: edge
/// enumeration, 2-paths and 2- and 3-arm stars, four answering about |V|
/// rows and eight about |E|.
std::vector<WireQuery> RowQueryPool();

/// Width-4 shapes: two randomly relabelled oriented 5-cliques (10 atoms)
/// per isomorphism class of 5-vertex tournaments, each in a seeded atom
/// order; shape i has i % 3 free variables, so each class appears with two
/// different free-variable counts. Every seed draws from the same twelve
/// classes, so synthesis and evaluation cost have the same mix on every
/// seed.
std::vector<std::string> CliqueShapes(cqa::Rng* rng);

}  // namespace servebench

#endif  // SERVEBENCH_INPUTS_H_
