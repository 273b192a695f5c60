open Relational

type node = { alias : string; base : string }
type edge = { n1 : string; n2 : string; pred : Predicate.t }

module Smap = Map.Make (String)

(* Edges keyed by the sorted alias pair, so (a,b) = (b,a). *)
module Pmap = Map.Make (struct
  type t = string * string

  let compare = compare
end)

type t = { node_map : node Smap.t; edge_map : Predicate.t Pmap.t }

let empty = { node_map = Smap.empty; edge_map = Pmap.empty }

let add_node g ~alias ~base =
  if Smap.mem alias g.node_map then
    invalid_arg ("Qgraph.add_node: duplicate alias " ^ alias);
  { g with node_map = Smap.add alias { alias; base } g.node_map }

let key a b = if String.compare a b <= 0 then (a, b) else (b, a)

let add_edge g a b pred =
  if not (Smap.mem a g.node_map) then invalid_arg ("Qgraph.add_edge: unknown node " ^ a);
  if not (Smap.mem b g.node_map) then invalid_arg ("Qgraph.add_edge: unknown node " ^ b);
  if String.equal a b then invalid_arg "Qgraph.add_edge: self-loop";
  let k = key a b in
  let pred =
    match Pmap.find_opt k g.edge_map with
    | None -> pred
    | Some existing -> if Predicate.equal existing pred then existing
        else Predicate.And (existing, pred)
  in
  { g with edge_map = Pmap.add k pred g.edge_map }

let singleton ~alias ~base = add_node empty ~alias ~base

let make ns es =
  let g =
    List.fold_left (fun g (alias, base) -> add_node g ~alias ~base) empty ns
  in
  List.fold_left (fun g (a, b, p) -> add_edge g a b p) g es

let nodes g = Smap.bindings g.node_map |> List.map snd
let aliases g = Smap.bindings g.node_map |> List.map fst

let edges g =
  Pmap.bindings g.edge_map |> List.map (fun ((n1, n2), pred) -> { n1; n2; pred })

let node_count g = Smap.cardinal g.node_map
let edge_count g = Pmap.cardinal g.edge_map
let mem_node g a = Smap.mem a g.node_map
let base_of g a = (Smap.find a g.node_map).base

let find_edge g a b =
  Pmap.find_opt (key a b) g.edge_map
  |> Option.map (fun pred ->
         let n1, n2 = key a b in
         { n1; n2; pred })

let neighbours g a =
  Pmap.fold
    (fun (x, y) _ acc ->
      if String.equal x a then y :: acc else if String.equal y a then x :: acc else acc)
    g.edge_map []
  |> List.sort String.compare

(* Breadth-first from [root], neighbours in alias order; a node is placed
   when first reached. *)
let join_plan ?root g =
  match aliases g with
  | [] -> []
  | first :: _ ->
      let root = Option.value root ~default:first in
      if not (mem_node g root) then invalid_arg ("Qgraph.join_plan: unknown root " ^ root);
      let rec bfs seen order = function
        | [] -> List.rev order
        | a :: queue ->
            let next = List.filter (fun n -> not (Smap.mem n seen)) (neighbours g a) in
            let seen = List.fold_left (fun s n -> Smap.add n () s) seen next in
            bfs seen (a :: order) (queue @ next)
      in
      let step (placed, plan) a =
        let preds = List.filter_map (fun p -> Pmap.find_opt (key a p) g.edge_map) placed in
        (a :: placed, (a, preds) :: plan)
      in
      List.rev (snd (List.fold_left step ([], []) (bfs (Smap.singleton root ()) [] [ root ])))

let is_connected g =
  match aliases g with
  | [] -> true
  | start :: _ ->
      let visited = Hashtbl.create 16 in
      let rec dfs a =
        if not (Hashtbl.mem visited a) then begin
          Hashtbl.add visited a ();
          List.iter dfs (neighbours g a)
        end
      in
      dfs start;
      Hashtbl.length visited = node_count g

let induced g keep =
  let keep_set = List.fold_left (fun s a -> Smap.add a () s) Smap.empty keep in
  let node_map = Smap.filter (fun a _ -> Smap.mem a keep_set) g.node_map in
  List.iter
    (fun a ->
      if not (Smap.mem a node_map) then invalid_arg ("Qgraph.induced: unknown alias " ^ a))
    keep;
  let edge_map =
    Pmap.filter (fun (a, b) _ -> Smap.mem a keep_set && Smap.mem b keep_set) g.edge_map
  in
  { node_map; edge_map }

let union g1 g2 =
  let node_map =
    Smap.union
      (fun alias n1 n2 ->
        if String.equal n1.base n2.base then Some n1
        else invalid_arg ("Qgraph.union: alias " ^ alias ^ " bound to two bases"))
      g1.node_map g2.node_map
  in
  let edge_map =
    Pmap.union
      (fun (a, b) p1 p2 ->
        if Predicate.equal p1 p2 then Some p1
        else
          invalid_arg
            (Printf.sprintf "Qgraph.union: edge (%s,%s) relabeled" a b))
      g1.edge_map g2.edge_map
  in
  { node_map; edge_map }

let fresh_alias g base =
  if not (Smap.mem base g.node_map) then base
  else
    let rec go i =
      let candidate = base ^ string_of_int i in
      if Smap.mem candidate g.node_map then go (i + 1) else candidate
    in
    go 2

let node_relation ~lookup g alias =
  let node = Smap.find alias g.node_map in
  match lookup node.base with
  | None -> invalid_arg ("Qgraph.node_relation: unknown base relation " ^ node.base)
  | Some r ->
      let r = Relation.with_name alias r in
      if String.equal node.base alias then r
      else Relation.rename_rel r ~from:node.base ~into:alias

let scheme ~lookup g =
  let schemas =
    List.map (fun n -> Relation.schema (node_relation ~lookup g n.alias)) (nodes g)
  in
  match schemas with
  | [] -> Schema.of_attrs []
  | s :: rest -> List.fold_left Schema.append s rest

let equal g1 g2 =
  Smap.equal (fun a b -> String.equal a.base b.base) g1.node_map g2.node_map
  && Pmap.equal Predicate.equal g1.edge_map g2.edge_map

let pp ppf g =
  let pp_node ppf n =
    if String.equal n.alias n.base then Format.pp_print_string ppf n.alias
    else Format.fprintf ppf "%s:%s" n.alias n.base
  in
  Format.fprintf ppf "nodes {%a} edges {%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_node)
    (nodes g)
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf e -> Format.fprintf ppf "%s-%s [%a]" e.n1 e.n2 Predicate.pp e.pred))
    (edges g)

let to_string g = Format.asprintf "%a" pp g
