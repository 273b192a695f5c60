open Relational
open Fulldisj
module Qgraph = Querygraph.Qgraph

type occurrence = { rel : string; column : string; count : int }

type alternative = {
  mapping : Mapping.t;
  new_alias : string;
  occurrence : occurrence;
  description : string;
}

(* The chase scans every relation's id columns; the per-relation scans are
   independent, so they fan out over the context's pool.  Relation order
   is preserved, so the result equals [Database.find_value db v]
   exactly. *)
let occurrences_anywhere ctx v =
  Par.map
    ?pool:(Engine.Eval_ctx.pool ctx)
    (fun r -> Database.find_value_in r v)
    (Database.relations (Engine.Eval_ctx.db ctx))
  |> List.concat
  |> List.map (fun (rel, column, count) -> { rel; column; count })

let occurrences ctx (m : Mapping.t) v =
  let bases =
    Qgraph.nodes m.Mapping.graph |> List.map (fun n -> n.Qgraph.base)
  in
  occurrences_anywhere ctx v
  |> List.filter (fun o -> not (List.mem o.rel bases))

let chase ?illustration ctx (m : Mapping.t) ~attr ~value =
  Obs.with_span Obs.Names.sp_chase @@ fun () ->
  if Obs.enabled () then begin
    Obs.set_attr "attr" (Attr.to_string attr);
    Obs.set_attr "value" (Value.to_string value)
  end;
  let q = attr.Attr.rel in
  if not (Qgraph.mem_node m.Mapping.graph q) then
    invalid_arg ("Op_chase.chase: node " ^ q ^ " not in mapping graph");
  (match illustration with
  | None -> ()
  | Some exs ->
      let fd = Mapping_eval.data_associations ctx m in
      let scheme = fd.Full_disjunction.scheme in
      let pos = Schema.index scheme attr in
      let shown =
        List.exists
          (fun e -> Value.equal e.Example.tuple.(pos) value)
          exs
      in
      if not shown then
        invalid_arg
          (Printf.sprintf "Op_chase.chase: value %s not visible in %s of the illustration"
             (Value.to_string value) (Attr.to_string attr)));
  let occs = occurrences ctx m value in
  if Obs.enabled () then begin
    (* occurrences = tuples carrying the value; alternatives = extension
       sites offered to the user (one per relation.column). *)
    Obs.add Obs.Names.chase_occurrences
      (List.fold_left (fun acc o -> acc + o.count) 0 occs);
    Obs.add Obs.Names.chase_alternatives (List.length occs)
  end;
  occs
  |> List.map (fun o ->
         let alias = Qgraph.fresh_alias m.Mapping.graph o.rel in
         let pred = Predicate.eq_cols attr (Attr.make alias o.column) in
         let g =
           Qgraph.add_edge
             (Qgraph.add_node m.Mapping.graph ~alias ~base:o.rel)
             q alias pred
         in
         {
           mapping = Mapping.with_graph m g;
           new_alias = alias;
           occurrence = o;
           description =
             Printf.sprintf "%s found in %s.%s (%d occurrence%s): extend with %s on %s"
               (Value.to_string value) o.rel o.column o.count
               (if o.count = 1 then "" else "s")
               alias (Predicate.to_sql pred);
         })
