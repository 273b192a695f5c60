(** Databases: a catalog of relations over mutually disjoint schemes, plus
    declared integrity constraints. *)

type t

val empty : t

(** Monotonic identity stamp.  Every constructing operation ([add],
    [replace], [add_constraint], [insert_tuples], [of_relations]) yields a
    database with a fresh, strictly larger version than any database built
    before it, so a version uniquely identifies one immutable catalog
    state — the key memo caches use to invalidate entries when the
    instance changes.  [empty] is version 0. *)
val version : t -> int

val add : t -> Relation.t -> t
val add_constraint : t -> Integrity.t -> t

(** Replace an existing relation (matched by name) with a new instance.
    The result starts a new lineage: a fresh version and an empty
    {!history}, so no recorded step leads back to a version before the
    replace and cached results from before it are never promoted.
    Raises [Invalid_argument] when no relation of that name exists. *)
val replace : t -> Relation.t -> t

(** [insert_tuples t name tuples] adds a batch of tuples to relation
    [name], recording an insert-only {!Delta.kind} for the genuinely new
    tuples (duplicates of existing rows and within the batch are
    dropped).  Returns [t] unchanged — same version — when nothing is
    new.  Raises [Invalid_argument] on an unknown relation or malformed
    tuples.  This is the repair-friendly way to express an example-tuple
    edit. *)
val insert_tuples : t -> string -> Tuple.t list -> t

(** Steps the changelog keeps: 32.  When recording a step pushes the
    oldest one out, the [delta.history_evicted] counter is bumped;
    versions behind the dropped step are no longer recorded ancestors. *)
val history_window : int

(** The changelog, newest step first: each step's [from_version] is the
    next step's [to_version], and the newest step ends at {!version}.  At
    most {!history_window} steps.  The engine's promotion scan probes its
    cache at each recorded ancestor version. *)
val history : t -> Delta.t list

val of_relations : ?constraints:Integrity.t list -> Relation.t list -> t
val find : t -> string -> Relation.t option

(** Raises [Not_found]. *)
val get : t -> string -> Relation.t

val mem : t -> string -> bool

(** In insertion order. *)
val relations : t -> Relation.t list
val relation_names : t -> string list
val constraints : t -> Integrity.t list

(** All violations of all declared constraints. *)
val check : t -> Integrity.violation list

(** Total number of cells (tuples × arity) — the chase's scan cost. *)
val cell_count : t -> int

(** All occurrences of a value: [(relation, column, count)] triples.  The
    primitive behind the data chase (Section 5.2).  Nulls have no
    occurrences ([find_value db Null = []]). *)
val find_value : t -> Value.t -> (string * string * int) list

(** A value typed by a user: the literal string when the database holds
    it (["002"] is usually a string key despite looking numeric), else
    {!Value.of_csv_cell}'s reading. *)
val value_of_text : t -> string -> Value.t

(** The per-relation unit of {!find_value} ([(rel, column, count)] rows for
    one relation), exposed so callers can fan the whole-database scan out
    across relations.  [find_value t v] is exactly
    [List.concat_map (fun r -> find_value_in r v) (relations t)]. *)
val find_value_in : Relation.t -> Value.t -> (string * string * int) list
