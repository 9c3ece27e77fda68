"""repkit: clause-set representation toolkit.

Reduction hierarchies and hardness measures, minimal premise sets and
doping, saturated deficiency-1 clause-sets as labelled binary trees,
DNF/XOR-to-CNF translations, trigger-hypergraph lower bounds, and a
deterministic benchmark generator.
"""

__version__ = "0.1.0"  # bound before the submodules, which may import it

from .core import (
    BOT, BOT_SET, TOP, Assignment, Clause, ClauseSet, DimacsError,
    SizeLimitExceeded, apply_assignment, apply_clauses, canonical_dnf, clause,
    clause_set, complement, counts, emit_dimacs, entails, equivalent,
    falsifying_assignment, is_satisfiable, models, count_models, parse_dimacs,
    sat_lit, solve, variables, literals,
)
from .reductions import (
    HardnessReport, essential_prime_implicates, hardness, p_hardness,
    prime_implicates, prime_implicates_bruteforce, propagate_units, reduce_r,
    reduce_r_inf, refutation_level, relative_hardness, split_hardness_bound,
    substitute, unsat_level, w_hardness, w_refutation_level,
)
from .translate import (
    TranslationResult, cant, cantm, complement_clauses, dope, extension_property,
    k_base, negate_doped, two_xor_system, xor_chain,
)
from .trees import (
    LEAF, NotSmu1Error, Tree, alpha, apply_literal, clause_for_leaves,
    doped_tree, extremal_shape, extremal_tree, height, hts, inner_count,
    label_bfs, leaf_count, node, smuo, to_dot, tree_clauses, tree_labels,
    tsmuo,
)
from .mps import (
    MpsWitness, has_max_prime_implicates, is_mps, is_total_mps, mps_subsets,
    mps_subsets_direct, prime_implicates_bounded, pure_clause,
)
from .trigger import (
    DisjointEdgeCertificate, TriggerHypergraph, depth_k_incomparable_family,
    doped_tree_implicates, hyperedge, in_hyperedge, matching_number,
    transversal_number, trigger_hypergraph,
)
from .bench import (
    InstanceSpec, StatsRecord, default_grid, generate, instance_dimacs, stats,
    verify,
)
