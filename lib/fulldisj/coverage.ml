module Sset = Set.Make (String)

type t = Sset.t

let of_list = Sset.of_list
let to_list = Sset.elements
let singleton = Sset.singleton
let mem = Sset.mem
let subset = Sset.subset
let strict_superset a b = Sset.subset b a && not (Sset.equal a b)
let equal = Sset.equal
let compare = Sset.compare

let of_tuple node_positions tuple =
  of_list
    (List.filter_map
       (fun (alias, positions) ->
         if List.exists (fun i -> not (Relational.Value.is_null tuple.(i))) positions
         then Some alias
         else None)
       node_positions)

let label ?(short = fun _ -> None) t =
  let names = Sset.elements t in
  let abbreviated = List.map (fun n -> match short n with Some s -> s | None -> n) names in
  if List.for_all (fun (n, s) -> not (String.equal n s)) (List.combine names abbreviated)
  then String.concat "" abbreviated
  else String.concat "," abbreviated

let pp ppf t = Format.pp_print_string ppf (label t)
