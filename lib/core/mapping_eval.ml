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

(* Q_M compiled once against [fd]'s scheme: the transform, and whether an
   association tuple passes C_S and its target tuple C_T. *)
let compile (fd : Full_disjunction.result) (m : Mapping.t) =
  let src =
    List.map (Predicate.compile fd.Full_disjunction.scheme) m.Mapping.source_filters
  in
  let tgt =
    List.map (Predicate.compile (Mapping.target_schema m)) m.Mapping.target_filters
  in
  ( transform fd m,
    fun tuple t ->
      List.for_all (fun f -> f tuple) src && List.for_all (fun f -> f t) tgt )

let examples ctx (m : Mapping.t) =
  Obs.with_span Obs.Names.sp_examples (fun () ->
      let fd = data_associations ctx m in
      let tr, ok = compile fd m in
      let tuples = Relation.tuples_array fd.Full_disjunction.rows in
      let exs = ref [] in
      for i = Array.length tuples - 1 downto 0 do
        let tuple = tuples.(i) in
        let target_tuple = tr tuple in
        exs :=
          {
            Example.tuple;
            coverage = fd.Full_disjunction.coverage.(i);
            target_tuple;
            positive = ok tuple target_tuple;
          }
          :: !exs
      done;
      let exs = !exs in
      if Obs.enabled () then begin
        Obs.add Obs.Names.eval_examples (List.length exs);
        Obs.add Obs.Names.eval_positive
          (List.length (List.filter Example.is_positive exs))
      end;
      exs)

let apply_one fd m tuple =
  let tr, ok = compile fd m in
  let t = tr tuple in
  if ok tuple t then Some t else None

let apply fd (m : Mapping.t) =
  let tr, ok = compile fd m in
  Relation.create ~allow_all_null:true m.Mapping.target (Mapping.target_schema m)
    (Array.fold_right
       (fun tuple acc ->
         let t = tr tuple in
         if ok tuple t then t :: acc else acc)
       (Relation.tuples_array fd.Full_disjunction.rows)
       [])

let eval ctx m =
  Obs.with_span Obs.Names.sp_eval (fun () -> apply (data_associations ctx m) m)

let target_view = eval
