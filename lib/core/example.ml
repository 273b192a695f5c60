open Relational
open Fulldisj

type t = {
  tuple : Tuple.t;
  coverage : Coverage.t;
  target_tuple : Tuple.t;
  positive : bool;
}

let coverage e = e.coverage
let is_positive e = e.positive
let is_negative e = not e.positive
let polarity e = if e.positive then "+" else "-"

let equal a b =
  Tuple.equal a.tuple b.tuple
  && Coverage.equal a.coverage b.coverage
  && Tuple.equal a.target_tuple b.target_tuple
  && Bool.equal a.positive b.positive

let project_alias scheme e alias =
  Tuple.project e.tuple (Schema.positions_of_rel scheme alias)

let tag ?short e = Coverage.label ?short (coverage e) ^ " " ^ polarity e
