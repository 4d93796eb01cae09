// Random CQ workload generators for the Figure 1 scaling experiments and
// the randomized property sweeps.

#ifndef CQA_GADGETS_WORKLOADS_H_
#define CQA_GADGETS_WORKLOADS_H_

#include "base/rng.h"
#include "cq/cq.h"

namespace cqa {

/// A random Boolean CQ over graphs: `num_vars` variables, `num_atoms`
/// E-atoms over uniformly chosen (not necessarily distinct) variable pairs.
/// Every variable is forced to occur in some atom (safety).
ConjunctiveQuery RandomGraphCQ(int num_vars, int num_atoms, Rng* rng,
                               int num_free = 0, bool allow_loops = false);

/// A random Boolean CQ over an arbitrary vocabulary: `num_atoms` atoms with
/// uniformly chosen relations and variable fillings.
ConjunctiveQuery RandomCQ(VocabularyPtr vocab, int num_vars, int num_atoms,
                          Rng* rng, int num_free = 0);

/// A random *connected* cyclic Boolean graph CQ: a cycle of length
/// `cycle_len` plus `extra_atoms` random chords/pendants. Guaranteed not
/// acyclic (the tableau has an oriented cycle of length >= 3).
ConjunctiveQuery RandomCyclicGraphCQ(int cycle_len, int extra_atoms,
                                     Rng* rng);

/// A random oriented clique: `size` variables x0..x{size-1}, one E-atom per
/// pair in a uniformly chosen direction, x0..x{num_free-1} free. For size 5
/// this is the width-4 shape that approximate modes rewrite into TW(3).
ConjunctiveQuery RandomTournamentCQ(int size, int num_free, Rng* rng);

/// Q(x, z) :- E(x, y), E(y, z), E(z, x): cyclic (min-fill width 2) with
/// output, so evaluation must enumerate every triangle — the canonical
/// width-over-budget shape the approximation-serving tests and benches
/// share.
ConjunctiveQuery TriangleOutputCQ();

/// Q(x, y) :- E(x, y): single-atom edge enumeration, the simplest nonempty
/// workload.
ConjunctiveQuery EdgeEnumerationCQ();

/// Q(x, y1, ..., yk) :- E(x, y1), ..., E(x, yk), every variable free: an
/// acyclic star (so every engine, Yannakakis included, supports it).
/// `arms` >= 1.
ConjunctiveQuery StarCQ(int arms);

}  // namespace cqa

#endif  // CQA_GADGETS_WORKLOADS_H_
