(** Evaluation of full data associations F(J) (Definition 3.5).

    F(J) = σ_P(R1 × ... × Rn) with P the conjunction of edge predicates —
    computed here as a sequence of (hash) joins along
    {!Querygraph.Qgraph.join_plan}, applying each edge predicate as soon as
    both endpoints are present.  Works for cyclic graphs too (extra edges
    become filters). *)

open Relational

(** [full_associations src j] — F(J) for a connected query graph [j].
    When [src] carries an F(J) hook ({!Source.with_fj}) the whole request
    is answered through it — this is how the memo cache intercepts
    per-subgraph joins.  The result's schema is the graph's
    {!Qgraph.scheme} (sorted alias order), independent of join order.
    Raises [Invalid_argument] when [j] is empty or not connected. *)
val full_associations : Source.t -> Querygraph.Qgraph.t -> Relation.t

(** [full_associations_delta src j ~changed] — the {e new} F(J) tuples
    after an insert-only database update.  [changed] maps each touched
    base-relation name to the tuples inserted into it; [src]'s lookup must
    already resolve to the post-update relations.  For each alias over a
    touched base, the graph is joined once with that alias restricted to
    the inserted tuples and all other aliases at their full post-update
    instances; the union over touched aliases is returned (the old F(J)
    plus this result equals the post-update F(J), up to duplicates the
    caller removes).  The F(J) hook is ignored: this is the per-category
    step of {!Full_disjunction.delta}, which a promoted D(G) entry is
    repaired by.  Empty when no alias touches a changed base. *)
val full_associations_delta :
  Source.t ->
  Querygraph.Qgraph.t ->
  changed:(string * Tuple.t list) list ->
  Relation.t

(** [fold_plan ?root ~join ~rel_of ~scheme g] — the one join cascade:
    starting from [rel_of root], each later alias of
    {!Querygraph.Qgraph.join_plan}[ ?root g] is joined in as
    [join (Predicate.conj preds) acc (rel_of alias)], and the result's
    columns are put in [scheme]'s order.  F(J) and its delta cascade inner
    joins from the first alias; {!Outerjoin_plan} cascades full and left
    outer joins.  Raises [Invalid_argument] on the empty graph. *)
val fold_plan :
  ?root:string ->
  join:(Predicate.t -> Relation.t -> Relation.t -> Relation.t) ->
  rel_of:(string -> Relation.t) ->
  scheme:Schema.t ->
  Querygraph.Qgraph.t ->
  Relation.t

(** Reorder a relation's columns to match a target schema containing
    exactly the same attributes. *)
val reorder : Relation.t -> Schema.t -> Relation.t

(** Sort a relation's tuples into the canonical ({!Tuple.compare}) order
    every F(J) result is presented in — what makes an incrementally
    repaired F(J) structurally identical to its from-scratch twin. *)
val canonical : Relation.t -> Relation.t
