(** The evaluation context: database + knowledge base + memo cache,
    bundled into the one value core operators take.

    Before the engine existed every operator took [Database.t] (plus an ad
    hoc [kb:] here) and recomputed each F(J) and D(G) from scratch; the interactive loop (offer alternatives → rotate →
    refine) re-evaluates near-identical graphs constantly, so almost all of
    that work is shared.  A context memoizes both tiers in an
    {!Eval_cache}, keyed by {!Relational.Database.version} and
    {!Graph_key}, and hands the fulldisj layer a {!Fulldisj.Source} whose
    F(J) hook points back at the cache.

    Contexts are cheap immutable records; the cache inside is shared
    mutable state.  [with_db] keeps the cache — version keys make stale
    entries unreachable, so carrying the cache across a database edit is
    both safe and the point (unchanged subgraphs keep hitting). *)

open Relational
open Fulldisj

type t

(** [create db] — a caching context.  [kb] defaults to the database's
    declared foreign keys ({!Schemakb.Kb.of_database}); [cache] defaults to
    a fresh {!Eval_cache.create}; [no_cache:true] (or a prior
    {!set_caching_default}[ false]) disables memoization entirely. *)
val create :
  ?no_cache:bool ->
  ?cache:Eval_cache.t ->
  ?jobs:int ->
  ?kb:Schemakb.Kb.t ->
  Database.t ->
  t

(** A cache-less, empty-kb, sequential context for one-off evaluation
    over a bare database. *)
val transient : Database.t -> t

(** Process-wide default for [create]'s caching (true initially).  The CLI
    maps [--no-cache] onto this so every context built downstream complies. *)
val set_caching_default : bool -> unit

(** Process-wide default for [create]'s [?jobs] — how the CLI's [--jobs]
    reaches every context built downstream.  Same as
    {!Par.set_default_jobs}; the initial default also honours the
    [CLIO_JOBS] environment variable. *)
val set_jobs_default : int -> unit

val db : t -> Database.t
val kb : t -> Schemakb.Kb.t
val cache : t -> Eval_cache.t option

(** The shared {!Par} pool this context evaluates fan-out points on:
    [None] for [jobs = 1] (sequential, the default), else the pool of
    that size.  Results are identical to sequential evaluation by
    construction ({!Par.map} is order-preserving). *)
val pool : t -> Par.Pool.t option
val lookup : t -> string -> Relation.t option
val version : t -> int

(** Swap the database, keeping the cache.  [kb] defaults to the
    current one (a replaced relation keeps its constraints); pass a new one
    when the schema changed. *)
val with_db : ?kb:Schemakb.Kb.t -> t -> Database.t -> t

val with_jobs : t -> int -> t

(** The database version this context's branch forked from the trunk at,
    if it belongs to a branch of a {{!section-branching} version store}.
    Promotion is oblivious to it — a branch's recorded history already
    runs back through the fork into trunk versions shared with sibling
    branches — but promotions sourced at or below the root are counted as
    [cache.promote.cross_branch.{fj,dg}]: warm state inherited across
    branches through a common ancestor rather than recomputed per
    branch. *)
val branch_root : t -> int option

val with_branch_root : t -> int -> t

(** The {!Fulldisj.Source} this context evaluates through: the database's
    lookup plus (when caching) the F(J) memo hook — the [of_ctx]
    constructor promised in {!Fulldisj.Source}'s documentation. *)
val source : t -> Source.t

(** Memoized F(J) for a connected subgraph. *)
val full_associations : t -> Querygraph.Qgraph.t -> Relation.t

(** Memoized D(G) for a graph.  A miss at the current database version
    first tries to promote an entry cached at a recorded ancestor version
    through the delta chain ({!Relational.Database.history}, the last
    {!Relational.Database.history_window} steps): entries whose graph
    touches none of the changed relations are reused as-is
    ([cache.promote.*.free]); the others are repaired by a delta join
    over the inserted tuples ([cache.promote.*.repaired],
    {!Fulldisj.Full_disjunction.delta}).  With no recorded ancestor in
    the cache — past the window, or before a
    {!Relational.Database.replace} — the entry is computed from scratch
    ({!Fulldisj.Full_disjunction.compute}).  Results are byte-identical
    to from-scratch evaluation either way; a fresh context per edit is
    the from-scratch path. *)
val data_associations : t -> Querygraph.Qgraph.t -> Full_disjunction.result
