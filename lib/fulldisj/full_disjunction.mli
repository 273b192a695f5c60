(** The set of data associations D(G) (Definition 3.11) — Galindo-Legaria's
    {e full disjunction} of the query graph.

    D(G) = F(J1) ⊕ ... ⊕ F(Jn) over all induced connected subgraphs Ji of G.
    The engine evaluates it one way, {!compute_relation} on the columnar
    kernels, with {!compute} adding coverage tags and {!delta} repairing a
    cached result after inserts.  Two independent algorithms serve as
    oracles and bench baselines:

    - {!naive}: materializes every F(Ji), pads, then removes strictly
      subsumed tuples by pairwise scan.
    - {!Outerjoin_plan} (separate module): a cascade of full outer joins,
      valid for tree-shaped graphs. *)

open Relational
module Qgraph = Querygraph.Qgraph

type result = {
  scheme : Schema.t;  (** combined scheme of G, sorted alias order *)
  node_positions : (string * int list) list;  (** alias → column positions *)
  associations : Assoc.t list;
}

val naive : Source.t -> Qgraph.t -> result

(** [compute src g] — {!compute_relation} with each association's coverage
    read off its null pattern ({!Assoc.coverage_of_tuple}); sound because
    base relations reject all-null tuples. *)
val compute : Source.t -> Qgraph.t -> result

(** [delta src g ~old ~changed] — repair a previously computed D(G) after
    an insert-only database update, without recomputing untouched
    categories.  [old] is the result at the pre-update instance; [changed]
    maps each touched base-relation name to its inserted tuples; [src]
    must resolve to the post-update relations.  Only categories containing
    an alias over a touched base are (delta-)joined; their new tuples are
    merged into [old] with {!Min_union.merge_keep_flags}, and the sorted
    survivors of both merge linearly.  Equivalent to running {!compute}
    from scratch at the new instance — byte-identical, thanks to the
    canonical association order, which [old] must already be in. *)
val delta :
  Source.t ->
  Qgraph.t ->
  old:result ->
  changed:(string * Relational.Tuple.t list) list ->
  result

(** Sort associations by (tuple, coverage) — the canonical presentation
    order every algorithm emits.  Idempotent on algorithm outputs; exposed
    for the outer-join planner and for tests. *)
val canonical_order : Assoc.t list -> Assoc.t list

(** [compute_relation src g] — D(G) directly as a relation, evaluated on
    the columnar batch kernels end to end (concatenated padded
    categories, one-pass set dedup, bitmask subsumption sweep, canonical
    sort).  The tuples of [compute src g], in the same order. *)
val compute_relation : ?name:string -> Source.t -> Qgraph.t -> Relation.t

(** D(G) as a relation (coverage dropped), in association order.  The
    associations must already be a set under [Tuple.equal] — every
    algorithm here guarantees it — since no dedup pass runs. *)
val to_relation : ?name:string -> result -> Relation.t

(** Associations partitioned by coverage — the {e categories} of Section 4.2.
    Only non-empty categories appear. *)
val categories : result -> (Coverage.t * Assoc.t list) list

(** The possible data associations S(G) (Definition 3.6): every F(J) padded,
    {e without} subsumption removal.  Exposed for tests/oracles. *)
val possible_associations : Source.t -> Qgraph.t -> result
