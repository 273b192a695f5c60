open Relational
module Qgraph = Querygraph.Qgraph

let reorder r target =
  let src = Relation.schema r in
  if Schema.arity src <> Schema.arity target then
    invalid_arg "Join_eval.reorder: arity mismatch";
  let positions =
    Array.to_list (Schema.attrs target) |> List.map (Schema.index src)
  in
  (* A column permutation: rows are untouched, so the input set stays a
     set and dedup is skipped.  The row count travels with the columns,
     which zero columns cannot carry. *)
  let cols = if positions = [] then [||] else Relation.columns r in
  Relation.of_columns ~dedup:false ~allow_all_null:true
    ~nrows:(Relation.cardinality r) (Relation.name r) target
    (Array.of_list (List.map (fun i -> cols.(i)) positions))

(* Each step of the plan joins the next node in, with the conjunction of
   its edges to the nodes already present. *)
let fold_plan ?root ~join ~rel_of ~scheme g =
  match Qgraph.join_plan ?root g with
  | [] -> invalid_arg "Join_eval.fold_plan: empty graph"
  | (first, _) :: rest ->
      let joined =
        List.fold_left
          (fun acc (alias, preds) -> join (Predicate.conj preds) acc (rel_of alias))
          (rel_of first) rest
      in
      reorder joined scheme

(* Canonical tuple order for F(J) results.  A from-scratch join emits
   tuples in join order; an incrementally repaired F(J) emits the old
   tuples followed by the delta contributions.  Sorting both presentations
   makes equal tuple *sets* structurally identical relations, which the
   incremental/from-scratch parity guarantee is stated in terms of. *)
let canonical r =
  if Schema.arity (Relation.schema r) = 0 then r
  else
    Relation.of_columns ~dedup:false ~allow_all_null:true (Relation.name r)
      (Relation.schema r)
      (Col_ops.sort_rows_canonical (Relation.columns r))

let join_base_with ~rel_of ~scheme g =
  if Qgraph.node_count g = 0 then invalid_arg "Join_eval.full_associations: empty graph";
  if not (Qgraph.is_connected g) then
    invalid_arg "Join_eval.full_associations: graph not connected";
  canonical (fold_plan ~join:Algebra.join ~rel_of ~scheme g)

let join_base ~lookup g =
  join_base_with
    ~rel_of:(Qgraph.node_relation ~lookup g)
    ~scheme:(Qgraph.scheme ~lookup g) g

(* Delta join: after an insert-only update, every genuinely new F(J) tuple
   must use at least one inserted base tuple at some alias.  So for each
   alias over a touched base, run the join once more with that alias bound
   to just the inserted tuples and every *other* alias bound to the
   post-update relations; the union over touched aliases is exactly the set
   of new F(J) tuples.  A tuple combining inserted rows at several aliases
   shows up in several contributions — the set-semantic union absorbs the
   overlap.  The source's [lookup] must already resolve to the post-update
   relations; the fj_hook is deliberately ignored (the memo holds whole
   F(J)s, not deltas). *)
let full_associations_delta src g ~changed =
  let lookup = Source.lookup src in
  let scheme = Qgraph.scheme ~lookup g in
  let touched =
    Qgraph.nodes g
    |> List.filter_map (fun n ->
           List.assoc_opt n.Qgraph.base changed
           |> Option.map (fun tuples -> (n.Qgraph.alias, n.Qgraph.base, tuples)))
  in
  let contribution (alias0, base0, tuples) =
    let rel_of alias =
      if String.equal alias alias0 then
        match lookup base0 with
        | None ->
            invalid_arg
              ("Join_eval.full_associations_delta: unknown base relation " ^ base0)
        | Some r ->
            let d = Relation.create base0 (Relation.schema r) tuples in
            let d = Relation.with_name alias d in
            if String.equal base0 alias then d
            else Relation.rename_rel d ~from:base0 ~into:alias
      else Qgraph.node_relation ~lookup g alias
    in
    join_base_with ~rel_of ~scheme g
  in
  match List.map contribution touched with
  | [] ->
      Relation.create ~allow_all_null:true
        (match Qgraph.aliases g with a :: _ -> a | [] -> "delta")
        scheme []
  | first :: rest -> List.fold_left Algebra.union first rest

(* The hook (a memo cache) is consulted before the span: cache hits are
   near-free and would drown the trace, and on a miss the cache re-enters
   through a hook-less source, which emits the span around the real join. *)
let full_associations src g =
  match Source.fj_hook src with
  | Some hook -> hook g
  | None ->
      let lookup = Source.lookup src in
      if not (Obs.enabled ()) then join_base ~lookup g
      else
        Obs.with_span
          ~attrs:[ ("nodes", string_of_int (Qgraph.node_count g)) ]
          Obs.Names.sp_full_associations
          (fun () -> join_base ~lookup g)
