(** One data association: a tuple over a query graph's combined scheme,
    tagged with its coverage (Definitions 3.5–3.6) — what an example
    carries.  A D(G) result holds its rows and their coverage side by
    side ({!Full_disjunction.result}). *)

open Relational

type t = { tuple : Tuple.t; coverage : Coverage.t }

val make : Tuple.t -> Coverage.t -> t
val equal : t -> t -> bool

(** [coverage_of_tuple scheme node_positions tuple] — infer coverage from
    the null pattern: a node participates iff at least one of its columns is
    non-null.  Sound because source relations contain no all-null tuples.
    [node_positions] maps each alias to its column positions in [scheme]. *)
val coverage_of_tuple : (string * int list) list -> Tuple.t -> Coverage.t

(** The aliases {!coverage_of_tuple} would cover, in [node_positions]
    order — a cheap key for sharing one coverage value per null pattern. *)
val covered_aliases : (string * int list) list -> Tuple.t -> string list

(** [project_alias full_scheme assoc alias] — the source tuple contributed
    by one node (all of that node's columns). *)
val project_alias : Schema.t -> t -> string -> Tuple.t
