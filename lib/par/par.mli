(** Deterministic data-parallel combinators over a {!Pool} of domains.

    [Par.map ?pool f xs] evaluates [f] over [xs] with results landing by
    input index, so its output is always exactly [List.map f xs] — same
    order, and on exceptions the one raised is the lowest-index item's,
    regardless of execution interleaving.  Without a pool (or on
    single-item input) it {e is} [List.map].

    The caller participates in its own batch: items are pulled from a
    shared cursor by the caller and by helper tasks on the pool, so a
    nested [map] (an item that itself fans out) can always make progress
    by draining its own batch — the pool being busy can slow a batch down
    but never deadlock it.

    Observability composes: workers flush their domain-local counters and
    span trees per completed item, and a batch run from the main domain
    adopts all worker spans into the current trace before returning
    ({!Obs.Domains}). *)

module Pool = Pool

(** The sharded submit/notify executor behind the server's concurrent
    request plane ([clio_serve --workers]). *)
module Workers = Workers

(** [jobs] below this or a missing pool mean sequential execution. *)
val sequential : Pool.t option

(** The process-default jobs count: initialised from the [CLIO_JOBS]
    environment variable (default [1]), overridable by the CLI's
    [--jobs].  Clamped to [1..64]. *)
val default_jobs : unit -> int

val set_default_jobs : int -> unit

(** [get_pool ~jobs] returns the shared process pool for that parallelism
    ([None] when [jobs <= 1]).  Pools are created on first use, reused per
    jobs count, and shut down at process exit. *)
val get_pool : jobs:int -> Pool.t option

(** [map ?pool f xs] — [List.map f xs], parallel over [pool] when given. *)
val map : ?pool:Pool.t -> ('a -> 'b) -> 'a list -> 'b list

(** [mapi ?pool f xs] — [List.mapi f xs], parallel over [pool]. *)
val mapi : ?pool:Pool.t -> (int -> 'a -> 'b) -> 'a list -> 'b list

(** [iter ?pool f xs] — [List.iter f xs]; parallel, unordered execution,
    but exceptions still deterministic (lowest index wins). *)
val iter : ?pool:Pool.t -> ('a -> unit) -> 'a list -> unit

(** [init ?pool n f] — [Array.init n f], evaluated in index chunks so each
    batch item amortizes bookkeeping over many cheap [f] calls.  [f] must
    be safe to call in any order from any domain. *)
val init : ?pool:Pool.t -> int -> (int -> 'a) -> 'a array
