(* ETL over a larger synthetic schema: a star warehouse with mined join
   knowledge, workspaces over walk alternatives, and target assembly.

   Build and run with:  dune exec examples/large_schema_etl.exe

   This is the "realistic scale" example: 9 relations, a few thousand rows,
   no declared constraints — all join knowledge is mined from the data, as
   Section 5.1 describes ("gathered from ... mining the source data"). *)

open Relational
open Clio
module Qgraph = Querygraph.Qgraph

let () =
  let st = Random.State.make [| 2026 |] in
  let inst =
    Synth.Gen_graph.star st ~leaves:8 ~rows:2000 ~null_prob:0.1 ~orphan_prob:0.05 ()
  in
  let db = inst.Synth.Gen_graph.db in
  Printf.printf "Synthetic warehouse: %d relations, %d cells\n"
    (List.length (Database.relations db))
    (Database.cell_count db);

  (* Mine the join knowledge instead of using the declared FKs. *)
  let mined = Schemakb.Mine.inclusion_dependencies ~min_overlap:0.9 db in
  let kb = Schemakb.Kb.add_mined Schemakb.Kb.empty mined in
  Printf.printf "Mined %d inclusion dependencies, e.g.:\n" (List.length mined);
  List.iteri
    (fun i c -> if i < 5 then Format.printf "  %a@." Schemakb.Mine.pp_candidate c)
    mined;

  (* Map Fact plus two dimensions into a flat report. *)
  let m =
    initial_mapping ~source:"Fact" ~target:"Report"
      ~target_cols:[ "fact"; "d1"; "d2" ]
  in
  let m =
    match Op_correspondence.add ~kb m (corr_identity "fact" "Fact" "id") with
    | Op_correspondence.Updated m -> m
    | _ -> assert false
  in

  let ws = Workspace.create (Eval_ctx.create ~kb db) m in

  (* Link D1: inspect the alternatives in workspaces, confirm the best. *)
  let ws =
    match Op_correspondence.add ~kb ~max_len:2 m (corr_identity "d1" "D1" "p0") with
    | Op_correspondence.Alternatives alts ->
        Printf.printf "\n%d alternative(s) to link D1; offering as workspaces\n"
          (List.length alts);
        let ws =
          Workspace.offer ws
            ~labels:(List.map (fun a -> a.Op_correspondence.description) alts)
            (List.map (fun a -> a.Op_correspondence.mapping) alts)
        in
        Printf.printf "active workspace: %s\n" (Workspace.active ws).Workspace.label;
        Workspace.confirm ws
    | _ -> assert false
  in

  (* Link D2 on top of the confirmed mapping. *)
  let m = (Workspace.active ws).Workspace.mapping in
  let m =
    match Op_correspondence.add ~kb ~max_len:2 m (corr_identity "d2" "D2" "p0") with
    | Op_correspondence.Alternatives (alt :: _) -> alt.Op_correspondence.mapping
    | Op_correspondence.Updated m -> m
    | _ -> assert false
  in

  (* Only facts present in the report. *)
  let m = (Op_trim.require_target_column (Eval_ctx.transient db) m "fact").Op_trim.mapping in

  let view = Mapping_eval.target_view (Eval_ctx.transient db) m in
  Printf.printf "\nReport rows: %d (of %d facts; nulls where dims are missing)\n"
    (Relation.cardinality view)
    (Relation.cardinality (Database.get db "Fact"));

  (* How complete is the mapping?  Count null dims in the target. *)
  let s = Relation.schema view in
  let null_count col =
    Relation.fold
      (fun acc t ->
        if Value.is_null (Tuple.value s t (Attr.make "Report" col)) then acc + 1 else acc)
      0 view
  in
  Printf.printf "  d1 null in %d rows; d2 null in %d rows\n" (null_count "d1")
    (null_count "d2");

  print_endline "\nGenerated SQL:";
  print_endline (Mapping_sql.outer_join ~root:"Fact" m);

  (* The illustration stays small even though the database is large. *)
  let ill = Clio.illustrate (Eval_ctx.transient db) m in
  Printf.printf
    "\nSufficient illustration: %d examples (out of %d data associations)\n"
    (List.length ill)
    (Relation.cardinality
       (Mapping_eval.data_associations (Eval_ctx.transient db) m).Fulldisj.Full_disjunction.rows)
