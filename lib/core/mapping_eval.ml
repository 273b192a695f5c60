open Relational
open Fulldisj
module Eval_ctx = Engine.Eval_ctx

let data_associations ctx (m : Mapping.t) =
  Obs.with_span Obs.Names.sp_data_associations (fun () ->
      Eval_ctx.data_associations ctx m.Mapping.graph)

let transform (fd : Full_disjunction.result) (m : Mapping.t) =
  let compiled =
    List.map
      (fun col ->
        match Mapping.correspondence_for m col with
        | Some c -> Correspondence.compile fd.Full_disjunction.scheme c
        | None -> fun _ -> Value.Null)
      m.Mapping.target_cols
  in
  fun tuple -> Array.of_list (List.map (fun f -> f tuple) compiled)

let compile_source_filters (fd : Full_disjunction.result) (m : Mapping.t) =
  let fs =
    List.map (Predicate.compile fd.Full_disjunction.scheme) m.Mapping.source_filters
  in
  fun tuple -> List.for_all (fun f -> f tuple) fs

let compile_target_filters (m : Mapping.t) =
  let schema = Mapping.target_schema m in
  let fs = List.map (Predicate.compile schema) m.Mapping.target_filters in
  fun tuple -> List.for_all (fun f -> f tuple) fs

let examples ctx (m : Mapping.t) =
  Obs.with_span Obs.Names.sp_examples (fun () ->
      let fd = data_associations ctx m in
      let tr = transform fd m in
      let src_ok = compile_source_filters fd m in
      let tgt_ok = compile_target_filters m in
      let exs =
        List.map
          (fun (a : Assoc.t) ->
            let t = tr a.Assoc.tuple in
            {
              Example.assoc = a;
              target_tuple = t;
              positive = src_ok a.Assoc.tuple && tgt_ok t;
            })
          fd.Full_disjunction.associations
      in
      if Obs.enabled () then begin
        Obs.add Obs.Names.eval_examples (List.length exs);
        Obs.add Obs.Names.eval_positive
          (List.length (List.filter Example.is_positive exs))
      end;
      exs)

let apply_one (fd : Full_disjunction.result) (m : Mapping.t) (a : Assoc.t) =
  let tr = transform fd m in
  let src_ok = compile_source_filters fd m in
  let tgt_ok = compile_target_filters m in
  if src_ok a.Assoc.tuple then
    let t = tr a.Assoc.tuple in
    if tgt_ok t then Some t else None
  else None

let eval ctx (m : Mapping.t) =
  Obs.with_span Obs.Names.sp_eval (fun () ->
      let exs = examples ctx m in
      Relation.create ~allow_all_null:true m.Mapping.target
        (Mapping.target_schema m)
        (List.filter_map
           (fun e ->
             if e.Example.positive then Some e.Example.target_tuple else None)
           exs))

let target_view = eval
