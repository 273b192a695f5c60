(** Where a full-disjunction evaluation reads its relations from.

    Historically every entry point in this library took a raw
    [~lookup:(string -> Relation.t option)] closure, and [Full_disjunction]
    grew [naive_db]/[compute_db] convenience twins.  A [Source.t] collapses
    both shapes into one value and adds the seam the memoized evaluation
    engine plugs into: an optional F(J) hook consulted by
    {!Join_eval.full_associations} before computing a connected subgraph's
    join from scratch.

    Constructors:
    - {!of_db} — resolve names in a {!Relational.Database};
    - {!of_fn} — wrap a raw lookup closure;
    - [of_ctx] — provided by the engine layer as [Eval_ctx.source] (this
      library sits below [lib/engine], so the context-backed constructor
      lives there); it is {!of_db} on the context's database plus
      {!with_fj} pointing at the context's memo cache. *)

open Relational

type t

(** Resolve relation names with [lookup]; no F(J) hook. *)
val of_fn : (string -> Relation.t option) -> t

(** Resolve relation names in [db]; no F(J) hook. *)
val of_db : Database.t -> t

(** [with_fj hook src] — a source that answers whole-subgraph F(J) requests
    through [hook] (e.g. a memo cache) instead of joining base relations.
    [hook j] must return exactly the F(J) that
    {!Join_eval.full_associations} joins from [src]'s relations. *)
val with_fj : (Querygraph.Qgraph.t -> Relation.t) -> t -> t

(** [with_pool pool src] — carry a [Par] pool for the fan-out points of
    this library (per-subgraph F(J) materialization, subsumption sweeps).
    [None] (the default everywhere) means sequential evaluation. *)
val with_pool : Par.Pool.t option -> t -> t

val lookup : t -> string -> Relation.t option
val fj_hook : t -> (Querygraph.Qgraph.t -> Relation.t) option
val pool : t -> Par.Pool.t option

(** The graph's combined scheme under this source's lookup. *)
val scheme : t -> Querygraph.Qgraph.t -> Schema.t
