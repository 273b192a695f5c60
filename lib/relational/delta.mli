(** One step of a database changelog: what changed between two adjacent
    versions.

    {!Database} records one [Delta.t] per [add], [add_constraint] and
    [insert_tuples] so the evaluation engine can ask "what happened
    between version v and v'?" instead of only "did anything change?".
    Every recorded step is insert-only or touches no instance: cached
    results can be repaired by joining the new tuples in.  A
    {!Database.replace} records no step at all; it starts a new lineage
    with an empty changelog, so nothing cached before it is reachable. *)

type kind =
  | Insert of { relation : string; tuples : Tuple.t list }
      (** Tuples added to an existing relation; every tuple listed is
          genuinely new (absent at [from_version]).  The repairable case. *)
  | New_relation of string
      (** A relation appeared.  Query graphs always resolve every alias,
          so results cached before the relation existed never mention it —
          but the name is recorded for completeness. *)
  | Constraints_only
      (** Only integrity constraints changed; every cached instance-level
          result is still exact. *)

type t = { from_version : int; to_version : int; kind : kind }
