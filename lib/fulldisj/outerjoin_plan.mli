(** Outer-join evaluation of D(G) for tree-shaped query graphs.

    Galindo-Legaria showed that full disjunctions of γ-acyclic join queries
    can be computed by sequences of outer joins; binary-edge tree graphs
    qualify.  We cascade full outer joins along
    {!Querygraph.Qgraph.join_plan} through {!Join_eval.fold_plan} (each
    new node attaches to an already-present node, the same order F(J)
    joins in) and finish with an indexed subsumption sweep as a safety net — property tests check equality with
    the naive algorithm on random trees.

    Also provides the {e left}-outer-join plan rooted at a required
    relation, which is how the paper's Section 2 SQL (all kids, optional
    parent/phone/bus data) arises: rooting at [Children] and left-joining
    outward computes exactly the data associations that cover the root. *)

module Qgraph = Querygraph.Qgraph

val is_tree : Qgraph.t -> bool

(** D(G) by full-outer-join cascade. Raises [Invalid_argument] if [g] is
    not a tree. *)
val full_disjunction : Source.t -> Qgraph.t -> Full_disjunction.result

(** Associations covering [root], by left-outer-join cascade along
    [Qgraph.join_plan ~root].  Equals the subset of D(G) whose coverage
    contains [root], for every root (a property test).
    Raises [Invalid_argument] if [g] is not a tree. *)
val rooted : Source.t -> root:string -> Qgraph.t -> Full_disjunction.result
