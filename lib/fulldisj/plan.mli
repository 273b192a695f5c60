(** Explainable evaluation plans for D(G).

    Clio evaluates full disjunctions behind the scenes, always the same
    way ({!Full_disjunction.compute}); this module describes that plan for
    one graph: what the category space looks like, the join order, and
    cardinality estimates from the instance — an EXPLAIN facility for the
    mapping engine. *)

open Relational
module Qgraph = Querygraph.Qgraph

type t = {
  nodes : int;
  edges : int;
  categories : int;  (** number of induced connected subgraphs *)
  join_order : string list;  (** the F(J) joins' order, {!Qgraph.join_plan} *)
  estimated_base_rows : (string * int) list;  (** alias → instance cardinality *)
}

(** Inspect without evaluating. *)
val analyze : lookup:(string -> Relation.t option) -> Qgraph.t -> t

(** EXPLAIN-style rendering. *)
val render : t -> string
