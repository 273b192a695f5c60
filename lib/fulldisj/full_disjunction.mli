(** The set of data associations D(G) (Definition 3.11) — Galindo-Legaria's
    {e full disjunction} of the query graph.

    D(G) = F(J1) ⊕ ... ⊕ F(Jn) over all induced connected subgraphs Ji of G.
    The engine evaluates it one way, {!compute_relation} on the columnar
    kernels, with {!compute} adding coverage and {!delta} repairing a
    cached result after inserts.  Two independent algorithms serve as
    oracles and bench baselines:

    - {!naive}: materializes every F(Ji), pads, then removes strictly
      subsumed tuples by pairwise scan.
    - {!Outerjoin_plan} (separate module): a cascade of full outer joins,
      valid for tree-shaped graphs.

    A {!result} holds D(G) once: its rows as one boxed relation (the view
    {!Relational.Render} reads fastest) and each row's coverage
    (Definition 3.6) beside it, one shared value per null pattern.  The
    engine caches this record and serves its rows as they are. *)

open Relational
module Qgraph = Querygraph.Qgraph

type result = {
  scheme : Schema.t;  (** combined scheme of G, sorted alias order *)
  node_positions : (string * int list) list;  (** alias → column positions *)
  rows : Relation.t;
      (** the associations, boxed view only, named ["D(G)"]; in canonical
          ({!Tuple.compare}) order for every D(G) algorithm, so equal sets
          render byte-identically however they were computed *)
  coverage : Coverage.t array;  (** [coverage.(i)] covers row [i] *)
}

(** [of_rows g rel] — the result holding [rel]'s rows as a boxed
    relation of their own, in [rel]'s order, with each row's coverage read
    off its null pattern, one coverage value per distinct pattern; sound
    because base relations reject all-null tuples.  [rel] must be a set
    over [g]'s scheme.  Every algorithm here builds its result this
    way. *)
val of_rows : Qgraph.t -> Relation.t -> result

val naive : Source.t -> Qgraph.t -> result

(** [compute src g] — {!compute_relation} over every category of [g],
    through {!of_rows}. *)
val compute : Source.t -> Qgraph.t -> result

(** [delta src g ~old ~changed] — repair a previously computed D(G) after
    an insert-only database update, without recomputing untouched
    categories.  [old] is the result at the pre-update instance; [changed]
    maps each touched base-relation name to its inserted tuples; [src]
    must resolve to the post-update relations.  Only categories containing
    an alias over a touched base are (delta-)joined; their new tuples are
    merged into [old] with {!Min_union.merge_keep_flags}, and the sorted
    survivors of both merge linearly with their coverage.  Equivalent to
    running {!compute} from scratch at the new instance — byte-identical,
    thanks to the canonical row order, which [old] must already be in. *)
val delta :
  Source.t ->
  Qgraph.t ->
  old:result ->
  changed:(string * Relational.Tuple.t list) list ->
  result

(** [compute_relation src g ~categories] — the minimum union of the
    padded F(J) of each category in [categories] (connected alias sets
    of [g]), as a relation, evaluated on the columnar batch kernels end
    to end (padded categories concatenated into a set, bitmask
    subsumption sweep, canonical sort).  The union needs no dedup pass
    unless a base relation of [g] holds an all-null row.  Over every
    connected node set ({!Querygraph.Subgraphs.connected_node_sets}) it
    is D(G): the rows of [compute src g], in the same order.  A category
    list closed under supersets gives exactly D(G)'s rows whose coverage
    is in the list, since a subsumer's coverage contains its victim's. *)
val compute_relation :
  ?name:string ->
  Source.t ->
  Qgraph.t ->
  categories:string list list ->
  Relation.t

(** D(G) as a relation: the [rows] field, no copy. *)
val to_relation : result -> Relation.t

(** [restrict p r] — the rows whose coverage satisfies [p], in order, with
    their coverage. *)
val restrict : (Coverage.t -> bool) -> result -> result

(** Association tuples partitioned by coverage — the {e categories} of
    Section 4.2, in order of first appearance.  Only non-empty categories
    appear. *)
val categories : result -> (Coverage.t * Tuple.t list) list

(** The possible data associations S(G) (Definition 3.6): every F(J) padded,
    {e without} subsumption removal, in category order.  Exposed for
    tests/oracles. *)
val possible_associations : Source.t -> Qgraph.t -> result
