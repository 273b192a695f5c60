open Relational
module Qgraph = Querygraph.Qgraph

let focus_set ~universe ~scheme ~rel ~tuples =
  let positions = Schema.positions_of_rel scheme rel in
  if positions = [] then invalid_arg ("Focus: unknown relation " ^ rel);
  List.filter
    (fun e ->
      let proj = Tuple.project e.Example.tuple positions in
      List.exists (Tuple.equal proj) tuples)
    universe

let is_focussed ~universe ~scheme ~rel ~tuples illustration =
  focus_set ~universe ~scheme ~rel ~tuples
  |> List.for_all (fun e -> Illustration.mem e illustration)

let tuples_matching db ~graph ~rel pred =
  let r = Qgraph.node_relation ~lookup:(Database.find db) graph rel in
  Relation.tuples (Algebra.select pred r)
