open Relational

type t = { tuple : Tuple.t; coverage : Coverage.t }

let make tuple coverage = { tuple; coverage }

let equal a b = Tuple.equal a.tuple b.tuple && Coverage.equal a.coverage b.coverage

let covered_aliases node_positions tuple =
  List.filter_map
    (fun (alias, positions) ->
      if List.exists (fun i -> not (Value.is_null tuple.(i))) positions then Some alias
      else None)
    node_positions

let coverage_of_tuple node_positions tuple =
  Coverage.of_list (covered_aliases node_positions tuple)

let project_alias scheme t alias =
  Tuple.project t.tuple (Schema.positions_of_rel scheme alias)
