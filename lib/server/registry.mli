(** The session registry: many isolated refinement sessions over one
    shared evaluation substrate.

    Each session points at one branch of a {!Version.Store.t} — the
    branching version DAG of database + workspace + mapping state — while
    every workspace the store resolves is built over the registry's single
    {!Engine.Eval_cache} and jobs setting, so sessions opened from the
    same scenario share memoized F(J)/D(G) results (version keys make the
    sharing safe: a session that edits its database forks to fresh
    versions and simply stops hitting the common entries).  Sessions
    opened via {!open_branch} share one store by reference: that is how
    two clients collaborate on one scenario with per-branch isolation.

    Per-session counters and operation latencies are recorded here and
    surfaced, with the server totals, as one gauge list ({!gauges}) that
    both the [stats] verb and the Prometheus scrape render.  The whole
    registry persists ({!persist}/{!restore}) so a restarted server
    resumes its sessions warm. *)

(** Per-session metric accumulators (opaque; read via {!session_gauges}). *)
type metrics

type session = {
  sid : string;
  scenario : Protocol.scenario;
  opened_at : float;
  store : Version.Store.t;
  mutable branch : string;  (** which branch of [store] this session is on *)
  affinity : int;
      (** shard-pinning key, one per distinct store: sessions sharing a
          store share it, so their commits serialize onto one worker *)
  metrics : metrics;
}

type t

val create : ?jobs:int -> ?no_cache:bool -> ?cache_bytes:int -> unit -> t

val cache : t -> Engine.Eval_cache.t option
val jobs : t -> int

(** The session's current workspace: its store's state at its branch. *)
val ws : session -> Clio.Workspace.t

(** The session's shard-pinning key ([affinity] field). *)
val affinity : session -> int

(** Raises [Invalid_argument] on an invalid scenario spec. *)
val open_session : t -> Protocol.scenario -> session

val find : t -> string -> session option

(** [open_branch t ~of_session ~branch] — a {e new} session sharing
    [of_session]'s version store, positioned on [branch].  [None] when
    [of_session] is unknown; raises [Invalid_argument] when the branch
    does not exist. *)
val open_branch : t -> of_session:string -> branch:string -> session option

(** [true] when the session existed. *)
val close_session : t -> string -> bool

val session_count : t -> int
val session_ids : t -> string list

(** Bookkeeping used by the service/loop layers. *)

val count_request : t -> unit
val count_error : t -> unit
val count_overload : t -> unit
val overloads : t -> int

(** [record_op s ~op ~latency_us ~ok] — bump the session's per-verb
    counter, fold the request's [cache.*] counter deltas (from
    {!Obs.Scope}) into the session's cache attribution, and retain the
    latency sample.  Latency retention is capped (newest 4096): beyond the
    cap, p50/p99 describe the most recent window while mean/max stay
    all-time. *)
val record_op :
  ?cache_deltas:(string * int) list ->
  session ->
  op:string ->
  latency_us:float ->
  ok:bool ->
  unit

(** The [session.*] gauges of one session, each labeled
    [session=<sid>]: request/error totals, latency mean/max and
    nearest-rank p50/p99 (µs), database version, workspace entry count,
    branch count of its store, then per-verb counts ([session.ops.*]) and
    accumulated cache deltas ([session.cache.*]), each group name-sorted. *)
val session_gauges : session -> Obs.Prom_export.gauge list

(** Every gauge the registry reports: the unlabeled [server.*] totals —
    sessions open/opened, requests, errors, overload rejections, uptime,
    jobs, the value pool's size ([server.value_pool.count]/[.bytes], read
    at call time) and the shared cache's state — then every open session's
    {!session_gauges}, sid-sorted. *)
val gauges : t -> Obs.Prom_export.gauge list

(** The key a flat (no-session) [stats] reply gives [g]: a
    {!session_gauges} entry [session.<m>] labeled [session=<sid>] reads
    [sessions.<sid>.<m>]; an unlabeled gauge keeps its name. *)
val stats_key : Obs.Prom_export.gauge -> string

(** {2 Persistence} — how [clio_serve --store-dir] survives restarts. *)

(** [persist t ~dir] — save every open session: each distinct store under
    its own [dir/store-N] subdirectory ({!Version.Store.save}) plus a
    [dir/registry.json] manifest mapping sids to (store, branch). *)
val persist : t -> dir:string -> unit

(** [restore t ~dir] — rebuild the sessions recorded by {!persist} by
    replaying each store's changelog (re-warming the shared cache as a
    side effect) and re-pointing the recorded sids at the recovered
    branches.  Session metrics restart at zero.  Returns the number of
    sessions restored; raises [Failure] on malformed or divergent state. *)
val restore : t -> dir:string -> int
