open Relational
module Qgraph = Querygraph.Qgraph

let is_tree g =
  Qgraph.node_count g > 0
  && Qgraph.is_connected g
  && Qgraph.edge_count g = Qgraph.node_count g - 1

(* BFS order rooted at [root]; each node after the root is joined through
   its unique tree edge to the already-present part. *)
let bfs_order g root =
  let rec bfs visited queue acc =
    match queue with
    | [] -> List.rev acc
    | a :: rest ->
        if List.mem a visited then bfs visited rest acc
        else
          let next =
            Qgraph.neighbours g a |> List.filter (fun n -> not (List.mem n visited))
          in
          bfs (a :: visited) (rest @ next) (a :: acc)
  in
  bfs [] [ root ] []

let cascade ~lookup ~join g root =
  let order = bfs_order g root in
  match order with
  | [] -> invalid_arg "Outerjoin_plan: empty graph"
  | first :: rest ->
      let acc = ref (Qgraph.node_relation ~lookup g first) in
      let present = ref [ first ] in
      List.iter
        (fun alias ->
          let next_rel = Qgraph.node_relation ~lookup g alias in
          let preds =
            List.filter_map
              (fun p -> Qgraph.find_edge g alias p |> Option.map (fun e -> e.Qgraph.pred))
              !present
          in
          (if Obs.enabled () then
             Obs.with_span
               ~attrs:[ ("alias", alias) ]
               Obs.Names.sp_oj_join
               (fun () -> acc := join (Predicate.conj preds) !acc next_rel)
           else acc := join (Predicate.conj preds) !acc next_rel);
          present := alias :: !present)
        rest;
      Join_eval.reorder !acc (Qgraph.scheme ~lookup g)

let tag_result g rel = Full_disjunction.of_rows g (Join_eval.canonical rel)

(* The cascade joins base relations node by node — there is no per-subgraph
   F(J) request to intercept, so only the source's lookup is used. *)
let full_disjunction src g =
  let lookup = Source.lookup src in
  if not (is_tree g) then invalid_arg "Outerjoin_plan.full_disjunction: not a tree";
  Obs.with_span ~attrs:[ ("algorithm", "outerjoin") ] Obs.Names.sp_oj_plan
    (fun () ->
      let root = List.hd (Qgraph.aliases g) in
      let fused = cascade ~lookup ~join:Algebra.full_outer_join g root in
      (* Safety net: the cascade can only miss subsumption across branches. *)
      let minimal =
        Obs.with_span Obs.Names.sp_oj_sweep (fun () ->
            Min_union.sweep ?pool:(Source.pool src)
              (Relation.with_name "D(G)" fused))
      in
      tag_result g minimal)

let rooted src ~root g =
  let lookup = Source.lookup src in
  if not (is_tree g) then invalid_arg "Outerjoin_plan.rooted: not a tree";
  if not (Qgraph.mem_node g root) then invalid_arg ("Outerjoin_plan.rooted: " ^ root);
  let rel = cascade ~lookup ~join:Algebra.left_outer_join g root in
  tag_result g rel
