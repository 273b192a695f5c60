(** Clio's mapping framework (Section 6.1): a set of workspaces, each
    holding one alternative mapping with its illustration; one workspace is
    active; the target view always shows what the active mapping would
    produce (WYSIWYG).

    When an operator yields several alternative mappings, {!offer} replaces
    the current workspaces with the alternatives (illustrations evolved
    continuously from the active one) and activates the first (the
    highest-ranked).  The user can {!rotate}, {!select}, {!delete}
    alternatives, or {!confirm} the active one, discarding the others. *)

open Relational

type entry = {
  id : int;
  mapping : Mapping.t;
  illustration : Illustration.t;
  label : string;
}

type t

(** A workspace owns (a reference to) an evaluation context; every
    evaluation in the session — fresh illustrations, evolved illustrations
    on {!offer}, the target view on each {!rotate}/{!render} — goes through
    its memo cache, which is what makes the interactive loop cheap. *)
val create : Engine.Eval_ctx.t -> ?label:string -> Mapping.t -> t

val ctx : t -> Engine.Eval_ctx.t
val db : t -> Database.t
val kb : t -> Schemakb.Kb.t

(** Tag the workspace's context with the database version its branch
    forked at ({!Engine.Eval_ctx.with_branch_root}) — used by the version
    store so cross-branch cache promotions are counted. *)
val with_branch_root : t -> int -> t
val entries : t -> entry list
val active : t -> entry

(** The WYSIWYG target viewer: the active mapping's positive tuples. *)
val target_view : t -> Relation.t

(** Replace workspaces with alternatives; each gets a continuously evolved
    illustration.  [labels] pair with mappings positionally. *)
val offer : t -> ?labels:string list -> Mapping.t list -> t

val rotate : t -> t

(** Raises [Not_found] for unknown ids. *)
val select : t -> int -> t

(** Deleting the active entry activates the next remaining one; deleting
    the last entry raises [Invalid_argument]. *)
val delete : t -> int -> t

(** Keep only the active workspace. *)
val confirm : t -> t

(** [add_tuples t rel tuples] — the example-edit operation: insert tuples
    into base relation [rel] ({!Relational.Database.insert_tuples}) and
    evolve every workspace's illustration against the updated instance.
    The evaluation context keeps its memo cache across the edit, so the
    re-evaluations promote or repair the cached D(G) entries through the
    engine's delta chain.  A no-op (same workspace value) when every tuple
    already exists.  Raises [Invalid_argument] on an unknown relation or
    malformed tuples. *)
val add_tuples : t -> string -> Tuple.t list -> t

(** Replace the active mapping in place (e.g. after a trim operator),
    evolving its illustration. *)
val update_active : t -> ?label:string -> Mapping.t -> t

(** Text dashboard: every workspace with its label and graph (the active
    one marked), the active illustration, and the target view — the
    textual counterpart of the Clio screen described in Section 6.1. *)
val render : ?short:(string -> string option) -> t -> string

(** What tells two workspaces apart, per tuple of a shared node (see
    {!Differentiate.distinguishing}).  Raises [Not_found] on unknown ids;
    [Invalid_argument] when the entries disagree on the target schema. *)
val compare_entries : t -> rel:string -> int -> int -> Differentiate.contrast list
