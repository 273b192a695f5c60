open Relational
open Fulldisj
module Qgraph = Querygraph.Qgraph
module Subgraphs = Querygraph.Subgraphs

let select_items (m : Mapping.t) =
  List.map
    (fun col ->
      match Mapping.correspondence_for m col with
      | Some c -> Correspondence.to_sql c
      | None -> Printf.sprintf "NULL as %s" col)
    m.Mapping.target_cols

let where_clause preds =
  match preds with
  | [] -> ""
  | ps -> "\nwhere " ^ String.concat "\n  and " (List.map Predicate.to_sql ps)

let canonical (m : Mapping.t) =
  let g = m.Mapping.graph in
  let categories =
    Subgraphs.connected_node_sets g
    |> List.map (fun aliases -> "F({" ^ String.concat ", " aliases ^ "})")
  in
  let node_sql n =
    if String.equal n.Qgraph.alias n.Qgraph.base then n.Qgraph.base
    else Printf.sprintf "%s as %s" n.Qgraph.base n.Qgraph.alias
  in
  let edges_sql =
    Qgraph.edges g
    |> List.map (fun e -> Predicate.to_sql e.Qgraph.pred)
    |> String.concat "; "
  in
  Printf.sprintf
    "select * from (\n\
    \  select %s\n\
    \  from D(G)%s\n\
     ) %s%s\n\
     -- G: nodes {%s}; edges {%s}\n\
     -- D(G) = %s (minimum union of the full data associations of every\n\
     -- induced connected subgraph of G)"
    (String.concat ",\n         " (select_items m))
    (match m.Mapping.source_filters with
    | [] -> ""
    | ps ->
        "\n  where " ^ String.concat "\n    and " (List.map Predicate.to_sql ps))
    m.Mapping.target
    (where_clause m.Mapping.target_filters)
    (String.concat ", " (List.map node_sql (Qgraph.nodes g)))
    edges_sql
    (String.concat " (+) " categories)

(* Substitute target columns by their correspondence expressions. *)
let pullback_expr (m : Mapping.t) =
  let rec sub (e : Expr.t) =
    match e with
    | Expr.Col a when String.equal a.Attr.rel m.Mapping.target -> (
        match Mapping.correspondence_for m a.Attr.name with
        | Some { Correspondence.fn = Correspondence.Of_expr e'; _ } -> e'
        | Some { Correspondence.fn = Correspondence.Custom _; _ } | None ->
            Expr.Const Value.Null)
    | Expr.Col _ | Expr.Const _ -> e
    | Expr.Add (a, b) -> Expr.Add (sub a, sub b)
    | Expr.Sub (a, b) -> Expr.Sub (sub a, sub b)
    | Expr.Mul (a, b) -> Expr.Mul (sub a, sub b)
    | Expr.Concat (a, b) -> Expr.Concat (sub a, sub b)
    | Expr.Coalesce (a, b) -> Expr.Coalesce (sub a, sub b)
  in
  sub

let pullback_target_filters (m : Mapping.t) =
  let sub_expr = pullback_expr m in
  let rec sub (p : Predicate.t) =
    match p with
    | Predicate.True | Predicate.False -> p
    | Predicate.Cmp (op, a, b) -> Predicate.Cmp (op, sub_expr a, sub_expr b)
    | Predicate.And (a, b) -> Predicate.And (sub a, sub b)
    | Predicate.Or (a, b) -> Predicate.Or (sub a, sub b)
    | Predicate.Not a -> Predicate.Not (sub a)
    | Predicate.Is_null e -> Predicate.Is_null (sub_expr e)
    | Predicate.Is_not_null e -> Predicate.Is_not_null (sub_expr e)
  in
  List.map sub m.Mapping.target_filters

(* Aliases made required by a pulled-back [x is not null] filter. *)
let required_aliases (m : Mapping.t) =
  pullback_target_filters m
  |> List.concat_map (function
       | Predicate.Is_not_null (Expr.Col a) -> [ a.Attr.rel ]
       | _ -> [])
  |> List.sort_uniq String.compare

let outer_join ~root (m : Mapping.t) =
  let g = m.Mapping.graph in
  if not (Outerjoin_plan.is_tree g) then
    invalid_arg "Mapping_sql.outer_join: query graph is not a tree";
  if not (Qgraph.mem_node g root) then
    invalid_arg ("Mapping_sql.outer_join: unknown root " ^ root);
  let required = required_aliases m in
  let node_sql alias =
    let base = Qgraph.base_of g alias in
    if String.equal alias base then base else Printf.sprintf "%s %s" base alias
  in
  (* The order [Outerjoin_plan.rooted] evaluates in; on a tree each later
     alias carries the one edge to its parent, and [conj [p] = p]. *)
  let joins =
    match Qgraph.join_plan ~root g with
    | [] -> assert false
    | (first, _) :: rest ->
        node_sql first
        :: List.map
             (fun (alias, preds) ->
               let jt = if List.mem alias required then "join" else "left join" in
               Printf.sprintf "%s %s on %s" jt (node_sql alias)
                 (Predicate.to_sql (Predicate.conj preds)))
             rest
  in
  let filters = m.Mapping.source_filters @ pullback_target_filters m in
  Printf.sprintf "select %s\nfrom %s%s"
    (String.concat ",\n       " (select_items m))
    (String.concat "\n  " joins)
    (where_clause filters)

let rooted_equivalent ctx ~root (m : Mapping.t) =
  let reference = Mapping_eval.eval ctx m in
  let fd =
    Outerjoin_plan.rooted (Engine.Eval_ctx.source ctx) ~root m.Mapping.graph
  in
  Relation.equal_contents reference (Mapping_eval.apply fd m)
