(** {1:branching The branching version store}

    A git-like version DAG over refinement-session state.  Each {b branch}
    names one live {!Clio.Workspace.t} — database + workspace + mapping
    state — and every mutation is a {b commit}: the reified {!Op.t} that
    produced the new state, chained to its parent.  Branching shares the
    immutable base state (branching is O(1): workspaces and databases are
    values); merging folds the example tuples recorded on one branch into
    another; the whole DAG persists to disk as a snapshot plus a
    changelog, and a restarted process rebuilds byte-identical state by
    replaying it.

    Cache economics: {!Relational.Database} versions are process-global
    and immutable, so a branch's recorded history runs back {e through}
    its fork point into versions shared with sibling branches.  The
    engine's D(G) promotion walk ({!Engine.Eval_ctx}) therefore reuses
    warm D(G) entries across branches with a common ancestor without any
    store-specific machinery (F(J) entries are memoized per version and
    never promoted); the store tags each branch's context with its fork
    version ({!Clio.Workspace.with_branch_root}) so those cross-branch
    promotions are counted ([cache.promote.cross_branch.dg]).

    The store is not domain-safe; the server serializes access through its
    single-threaded loop, and the CLI is single-shot. *)

open Relational

type kind =
  | Root  (** the resolved scenario state; always cid 0 on ["main"] *)
  | Apply of Op.t
  | Branch_from of string
  | Merge of {
      from_branch : string;
      inserts : (string * Value.t array list) list;
          (** materialized at merge time, so replay is self-contained *)
    }

type commit = {
  cid : int;  (** store-wide, monotone; replay order *)
  branch : string;
  parent : int option;
  merge_parent : int option;  (** the merged-from head, on [Merge] *)
  kind : kind;
}

type t

(** The trunk branch every store starts with: ["main"]. *)
val main : string

(** [create ~resolve spec] — a store whose root state is [resolve spec].
    The resolver is the caller's workspace factory (the server passes one
    that attaches its shared cache and jobs setting); it is retained for
    {!load}-style replay and must be deterministic for a given spec. *)
val create : resolve:(Scenario.t -> Clio.Workspace.t) -> Scenario.t -> t

val spec : t -> Scenario.t

(** Branch names in creation order, ["main"] first. *)
val branch_names : t -> string list

(** [(name, database version)] per branch, creation order. *)
val branches : t -> (string * int) list

val has_branch : t -> string -> bool

(** The branch's current state.  Raises [Invalid_argument] on an unknown
    branch (as do all branch-taking operations below). *)
val checkout : t -> string -> Clio.Workspace.t

(** The branch's head commit id. *)
val head : t -> string -> int

(** [commit t ~branch op] — apply [op] to the branch's state and record
    it.  The op applied is [op] after an {!Op.to_json}/{!Op.of_json}
    round trip (an integral [Float] cell becomes an [Int]), so a reload's
    replay of the changelog rebuilds the same state.  When [Op.apply]
    (or the encoding of a non-finite float) raises, nothing is recorded
    and the branch is unchanged.  Returns the new state. *)
val commit : t -> branch:string -> Op.t -> Clio.Workspace.t

(** [branch t ~from name] — fork a new branch off [from]'s head.  O(1)
    state sharing; the new branch's context is tagged with the fork
    database version ({!Clio.Workspace.with_branch_root}).  Raises
    [Invalid_argument] when [name] already exists or is empty. *)
val branch : t -> from:string -> string -> Clio.Workspace.t

(** [merge t ~into ~from] — fold the example-tuple inserts recorded on
    commits reachable from [from] but not in [into]'s ancestry into
    [into], recording one [Merge] commit that materializes them.
    Mapping-state ops do not cross branches.  Idempotent (structural
    dedup); returns the number of genuinely new rows; returns 0 and
    records nothing when [from] is already merged. *)
val merge : t -> into:string -> from:string -> int

(** Newest common commit of the two branches' ancestries (they always
    share at least the root). *)
val lca : t -> a:string -> b:string -> int option

(** Stats-shaped branch comparison: [diff.lca_cid], [diff.ahead]/[.behind]
    (commit counts unique to each side), the two database versions and
    workspace entry counts, and per-relation row drift
    ([diff.rows.<rel>], a − b, zero-drift relations omitted). *)
val diff : t -> a:string -> b:string -> (string * float) list

(** The branch's history as a plain op sequence, oldest first, following
    parent edges through the fork into the trunk; merge commits stand for
    their materialized inserts.  Replaying this linearly over a fresh root
    reproduces the branch state — the qcheck linearization oracle. *)
val linear_ops : t -> branch:string -> Op.t list

(** The branch's commits oldest-first (same walk as {!linear_ops}, not
    flattened). *)
val log : t -> branch:string -> commit list

(** Structural fingerprint of one branch's state: rendered database plus
    workspace shape (entries, labels, graphs, active id), hex MD5.
    Version-independent, so it survives a process restart. *)
val state_digest : t -> string -> string

(** Write [dir/snapshot.json] (format, spec, branch heads, per-branch
    state digests) and [dir/changelog.jsonl] (one commit per line, cid
    order), creating [dir] if needed. *)
val save : t -> dir:string -> unit

(** Rebuild a store from {!save}'s output by replaying the changelog over
    a freshly resolved root.  Verifies every branch's recorded state
    digest after replay and raises [Failure] on any divergence, gap or
    malformed input.  Counters: [version.snapshot.loads],
    [version.snapshot.commits_replayed]. *)
val load : resolve:(Scenario.t -> Clio.Workspace.t) -> dir:string -> unit -> t

(** The file helpers every persisted file goes through — this module's
    snapshot and changelog and the server registry's manifest.
    [mkdir_p] creates a directory and its missing parents; [write_file]
    replaces a file's contents; [read_file] returns them whole. *)
val mkdir_p : string -> unit

val write_file : string -> string -> unit
val read_file : string -> string
