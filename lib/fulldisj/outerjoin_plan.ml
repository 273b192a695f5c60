open Relational
module Qgraph = Querygraph.Qgraph

let is_tree g =
  Qgraph.node_count g > 0
  && Qgraph.is_connected g
  && Qgraph.edge_count g = Qgraph.node_count g - 1

(* On a tree each node after the root joins through its one edge to the
   part already present.  [node_relation] names each relation by its
   alias, which is what the per-step span reports. *)
let cascade ?root ~lookup ~join g =
  let join p acc next =
    if not (Obs.enabled ()) then join p acc next
    else
      Obs.with_span
        ~attrs:[ ("alias", Relation.name next) ]
        Obs.Names.sp_oj_join
        (fun () -> join p acc next)
  in
  Join_eval.fold_plan ?root ~join ~rel_of:(Qgraph.node_relation ~lookup g)
    ~scheme:(Qgraph.scheme ~lookup g) g

let tag_result g rel = Full_disjunction.of_rows g (Join_eval.canonical rel)

(* The cascade joins base relations node by node — there is no per-subgraph
   F(J) request to intercept, so only the source's lookup is used. *)
let full_disjunction src g =
  let lookup = Source.lookup src in
  if not (is_tree g) then invalid_arg "Outerjoin_plan.full_disjunction: not a tree";
  Obs.with_span ~attrs:[ ("algorithm", "outerjoin") ] Obs.Names.sp_oj_plan
    (fun () ->
      let fused = cascade ~lookup ~join:Algebra.full_outer_join g in
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
  let rel = cascade ~root ~lookup ~join:Algebra.left_outer_join g in
  tag_result g rel
