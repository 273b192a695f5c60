(** Coverage of a data association (Definition 3.6): the set of query-graph
    nodes whose tuples participate in the association. *)

type t

val of_list : string list -> t
val to_list : t -> string list
val singleton : string -> t
val mem : string -> t -> bool
val subset : t -> t -> bool
val strict_superset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

(** [of_tuple node_positions tuple] — infer coverage from the null
    pattern: a node participates iff at least one of its columns is
    non-null.  Sound because source relations contain no all-null tuples.
    [node_positions] maps each alias to its column positions in the
    tuple's scheme. *)
val of_tuple : (string * int list) list -> Relational.Tuple.t -> t

(** Human-readable tag.  [short] maps an alias to its abbreviation (the
    paper tags rows "CPPhS"); defaults to the alias' first letter sequence
    fallback of the full name. Unmapped aliases print in full. *)
val label : ?short:(string -> string option) -> t -> string

val pp : Format.formatter -> t -> unit
