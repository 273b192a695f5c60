(** Mapping examples (Definition 4.1): pairs e = (d, t) of a data
    association and the target tuple it induces.

    [t] is always the unfiltered transform Q_{φ(M)}(d); [positive] records
    whether [d] satisfies C_S and [t] satisfies C_T.  A positive example
    shows source tuples contributing to the target; a negative example
    shows a valid combination that the filters exclude. *)

open Relational
open Fulldisj

type t = {
  tuple : Tuple.t;  (** the data association d, over D(G)'s scheme *)
  coverage : Coverage.t;  (** d's coverage (Definition 3.6) *)
  target_tuple : Tuple.t;
  positive : bool;
}

val coverage : t -> Coverage.t
val is_positive : t -> bool
val is_negative : t -> bool

(** Polarity tag used in renderings: "+" / "-". *)
val polarity : t -> string

val equal : t -> t -> bool

(** [project_alias scheme e alias] — the source tuple one node contributes
    to [e]'s association (all of that node's columns); [scheme] is D(G)'s
    scheme. *)
val project_alias : Schema.t -> t -> string -> Tuple.t

(** Row label in the Figure 8/9 style: coverage tag plus polarity,
    e.g. ["CPPhS +"].  [short] abbreviates aliases as in
    {!Fulldisj.Coverage.label}. *)
val tag : ?short:(string -> string option) -> t -> string
