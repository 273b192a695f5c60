(* Tests for the surrounding tooling: column profiling, universal-relation
   style suggestion, session undo/redo, mapping projects, lineage and the
   multi-relation correspondence workflow. *)

open Relational
open Clio
module Qgraph = Querygraph.Qgraph
module Profile = Schemakb.Profile

let db = Paperdata.Figure1.database
let kb = Paperdata.Figure1.kb

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- Profile --- *)

let test_profile_children_id () =
  let stats = Profile.column (Database.get db "Children") (Attr.make "Children" "ID") in
  Alcotest.(check int) "rows" 4 stats.Profile.rows;
  Alcotest.(check int) "distinct" 4 stats.Profile.distinct;
  Alcotest.(check bool) "key candidate" true stats.Profile.is_key_candidate;
  Alcotest.(check string) "min" "001" (Value.to_string stats.Profile.min_value);
  Alcotest.(check string) "max" "009" (Value.to_string stats.Profile.max_value)

let test_profile_null_rate () =
  let stats = Profile.column (Database.get db "Children") (Attr.make "Children" "mid") in
  (* Bob's mid is null: 1 of 4. *)
  Alcotest.(check int) "non-null" 3 stats.Profile.non_null;
  Alcotest.(check bool) "rate" true (abs_float (stats.Profile.null_rate -. 0.25) < 1e-9);
  Alcotest.(check bool) "not key" false stats.Profile.is_key_candidate

let test_profile_key_candidates () =
  let keys = Profile.key_candidates (Database.get db "Parents") in
  Alcotest.(check bool) "ID is key" true (List.mem "ID" keys);
  Alcotest.(check bool) "address not key" false (List.mem "address" keys)

let test_profile_render () =
  let s = Profile.render (Profile.relation (Database.get db "SBPS")) in
  Alcotest.(check bool) "table" true (contains s "SBPS.time");
  Alcotest.(check bool) "key col" true (contains s "key?")

let test_profile_database_covers_all_columns () =
  let stats = Profile.database db in
  let total_cols =
    Database.relations db
    |> List.fold_left (fun acc r -> acc + Schema.arity (Relation.schema r)) 0
  in
  Alcotest.(check int) "one per column" total_cols (List.length stats)

(* --- Suggest --- *)

let test_suggest_two_relations () =
  let suggestions = Suggest.connection_graphs ~kb ~max_len:1 [ "Children"; "Parents" ] in
  (* mid and fid. *)
  Alcotest.(check int) "two graphs" 2 (List.length suggestions);
  List.iter
    (fun (s : Suggest.suggestion) ->
      Alcotest.(check bool) "connected" true (Qgraph.is_connected s.Suggest.graph);
      Alcotest.(check int) "two nodes" 2 (Qgraph.node_count s.Suggest.graph))
    suggestions

let test_suggest_three_relations () =
  let suggestions =
    Suggest.connection_graphs ~kb ~max_len:2 [ "Children"; "Parents"; "PhoneDir" ]
  in
  Alcotest.(check bool) "some graphs" true (List.length suggestions >= 2);
  List.iter
    (fun (s : Suggest.suggestion) ->
      let bases =
        Qgraph.nodes s.Suggest.graph |> List.map (fun n -> n.Qgraph.base)
      in
      List.iter
        (fun r -> Alcotest.(check bool) (r ^ " present") true (List.mem r bases))
        [ "Children"; "Parents"; "PhoneDir" ])
    suggestions

let test_suggest_mappings_for () =
  let corrs =
    [
      Clio.corr_identity "ID" "Children" "ID";
      Clio.corr_identity "affiliation" "Parents" "affiliation";
    ]
  in
  let ms =
    Suggest.mappings_for ~kb ~max_len:1 ~target:"Kids"
      ~target_cols:[ "ID"; "affiliation" ] corrs
  in
  Alcotest.(check bool) "at least two" true (List.length ms >= 2);
  List.iter
    (fun ((m : Mapping.t), _) ->
      Alcotest.(check int) "both correspondences" 2
        (List.length m.Mapping.correspondences))
    ms

(* --- multi-relation correspondence (FamilyIncome, Example 3.2) --- *)

let test_family_income_two_copies () =
  (* Parents.salary + Parents2.salary: needs TWO relations linked at once,
     the second necessarily as a copy. *)
  let m =
    Mapping.make
      ~graph:(Qgraph.singleton ~alias:"Children" ~base:"Children")
      ~target:"Kids"
      ~target_cols:[ "ID"; "FamilyIncome" ]
      ~correspondences:[ Clio.corr_identity "ID" "Children" "ID" ]
      ()
  in
  let corr =
    Correspondence.of_expr "FamilyIncome"
      (Expr.Add (Expr.col "Parents" "salary", Expr.col "Parents2" "salary"))
  in
  match Op_correspondence.add ~kb ~max_len:1 m corr with
  | Op_correspondence.Alternatives alts ->
      Alcotest.(check bool) "alternatives exist" true (alts <> []);
      (* The intended linking — father via fid, mother copy via mid — must
         be among them, and it computes Maya's family income. *)
      let incomes =
        List.filter_map
          (fun (a : Op_correspondence.alternative) ->
            let view = Mapping_eval.target_view (Eval_ctx.transient db) a.Op_correspondence.mapping in
            let s = Relation.schema view in
            Relation.tuples view
            |> List.find_opt (fun t ->
                   Value.equal (Tuple.value s t (Attr.make "Kids" "ID"))
                     (Value.String "002"))
            |> Option.map (fun t -> Tuple.value s t (Attr.make "Kids" "FamilyIncome")))
          alts
      in
      (* Maya: mother 103 (55000) + father 104 (80000) = 135000, in the
         alternative that binds the two copies to different parents. *)
      Alcotest.(check bool) "135000 among alternatives" true
        (List.exists (Value.equal (Value.Int 135000)) incomes)
  | _ -> Alcotest.fail "expected Alternatives"

(* --- Session --- *)

let test_session_undo_redo () =
  let ws0 = Workspace.create (Eval_ctx.create ~kb db) Paperdata.Running.mapping_g1 in
  let s = Session.start ws0 in
  Alcotest.(check bool) "no undo yet" false (Session.can_undo s);
  let s =
    Session.update s (fun ws ->
        Workspace.update_active ws ~label:"with age filter"
          (Mapping.add_source_filter (Workspace.active ws).Workspace.mapping
             Paperdata.Running.age_filter))
  in
  Alcotest.(check string) "label" "with age filter"
    (Workspace.active (Session.current s)).Workspace.label;
  let s = Session.undo s in
  Alcotest.(check string) "back to initial" "initial"
    (Workspace.active (Session.current s)).Workspace.label;
  Alcotest.(check bool) "can redo" true (Session.can_redo s);
  let s = Session.redo s in
  Alcotest.(check string) "forward again" "with age filter"
    (Workspace.active (Session.current s)).Workspace.label

let test_session_apply_truncates_redo () =
  let ws0 = Workspace.create (Eval_ctx.create ~kb db) Paperdata.Running.mapping_g1 in
  let s = Session.start ws0 in
  let s = Session.apply s ws0 in
  let s = Session.apply s ws0 in
  let s = Session.undo (Session.undo s) in
  Alcotest.(check int) "three states" 3 (Session.depth s);
  let s = Session.apply s ws0 in
  Alcotest.(check bool) "redo gone" false (Session.can_redo s);
  Alcotest.(check int) "two states" 2 (Session.depth s)

let test_session_undo_at_start_is_identity () =
  let ws0 = Workspace.create (Eval_ctx.create ~kb db) Paperdata.Running.mapping_g1 in
  let s = Session.start ws0 in
  Alcotest.(check int) "depth" 1 (Session.depth (Session.undo s))

(* --- Project --- *)

let mothers_fathers () =
  let eq r1 c1 r2 c2 = Predicate.eq_cols (Attr.make r1 c1) (Attr.make r2 c2) in
  let mk ~via ~filter =
    Mapping.make
      ~graph:
        (Qgraph.make
           [ ("Children", "Children"); ("Parents", "Parents"); ("PhoneDir", "PhoneDir") ]
           [
             ("Children", "Parents", eq "Children" via "Parents" "ID");
             ("Parents", "PhoneDir", eq "Parents" "ID" "PhoneDir" "ID");
           ])
      ~target:"Kids"
      ~target_cols:[ "ID"; "name"; "contactPh" ]
      ~correspondences:
        [
          Clio.corr_identity "ID" "Children" "ID";
          Clio.corr_identity "name" "Children" "name";
          Clio.corr_identity "contactPh" "PhoneDir" "number";
        ]
      ~source_filters:[ filter ]
      ~target_filters:[ Predicate.Is_not_null (Expr.col "Kids" "ID") ]
      ()
  in
  ( mk ~via:"mid" ~filter:(Predicate.Is_not_null (Expr.col "Children" "mid")),
    mk ~via:"fid" ~filter:(Predicate.Is_null (Expr.col "Children" "mid")) )

let test_project_materialize () =
  let mothers, fathers = mothers_fathers () in
  let p = Project.create ~target:"Kids" ~target_cols:[ "ID"; "name"; "contactPh" ] in
  let p = Project.accept (Project.accept p mothers) fathers in
  let r = Project.materialize (Eval_ctx.transient db) p in
  Alcotest.(check int) "four kids" 4 (Relation.cardinality r)

let test_project_empty_materializes_empty () =
  let p = Project.create ~target:"Kids" ~target_cols:[ "ID" ] in
  Alcotest.(check int) "empty" 0 (Relation.cardinality (Project.materialize (Eval_ctx.transient db) p))

let test_project_completeness () =
  let mothers, fathers = mothers_fathers () in
  let p = Project.create ~target:"Kids" ~target_cols:[ "ID"; "name"; "contactPh" ] in
  let p = Project.accept (Project.accept p mothers) fathers in
  let reports = Project.completeness (Eval_ctx.transient db) p in
  let find col = List.find (fun r -> r.Project.column = col) reports in
  Alcotest.(check int) "ID everywhere" 4 (find "ID").Project.non_null_rows;
  Alcotest.(check int) "contactPh everywhere" 4 (find "contactPh").Project.non_null_rows;
  Alcotest.(check int) "mapped by both" 2 (find "ID").Project.mapped_by;
  Alcotest.(check bool) "render" true
    (contains (Project.render_completeness reports) "contactPh")

let test_project_retract () =
  let mothers, fathers = mothers_fathers () in
  let p = Project.create ~target:"Kids" ~target_cols:[ "ID"; "name"; "contactPh" ] in
  let p = Project.accept (Project.accept p mothers) fathers in
  let p = Project.retract p 0 in
  Alcotest.(check int) "one mapping" 1 (List.length (Project.mappings p));
  (* Only the motherless-kids mapping remains. *)
  Alcotest.(check int) "only Bob" 1 (Relation.cardinality (Project.materialize (Eval_ctx.transient db) p))

let test_project_rejects_mismatch () =
  let p = Project.create ~target:"Kids" ~target_cols:[ "ID" ] in
  let other =
    Mapping.make
      ~graph:(Qgraph.singleton ~alias:"Children" ~base:"Children")
      ~target:"Other" ~target_cols:[ "ID" ] ()
  in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Project.accept: mapping targets a different relation")
    (fun () -> ignore (Project.accept p other))

(* --- Explain --- *)

let test_explain_positive_row () =
  let m = Paperdata.Running.mapping in
  let view = Mapping_eval.target_view (Eval_ctx.transient db) m in
  let s = Relation.schema view in
  let maya =
    Relation.tuples view
    |> List.find (fun t ->
           Value.equal (Tuple.value s t (Attr.make "Kids" "name")) (Value.String "Maya"))
  in
  match Explain.of_target_tuple (Eval_ctx.transient db) m maya with
  | [ prov ] ->
      let contribution alias = List.assoc alias prov.Explain.contributions in
      Alcotest.(check bool) "Children contributed" true
        (Option.is_some (contribution "Children"));
      Alcotest.(check bool) "SBPS contributed" true
        (Option.is_some (contribution "SBPS"));
      let rendered = Explain.render (Explain.scheme (Eval_ctx.transient db) m) prov in
      Alcotest.(check bool) "rendered" true (contains rendered "Children")
  | provs -> Alcotest.failf "expected one derivation, got %d" (List.length provs)

let test_explain_why_null () =
  let m = Paperdata.Running.mapping in
  let view = Mapping_eval.target_view (Eval_ctx.transient db) m in
  let s = Relation.schema view in
  let ann =
    Relation.tuples view
    |> List.find (fun t ->
           Value.equal (Tuple.value s t (Attr.make "Kids" "name")) (Value.String "Ann"))
  in
  (match Explain.why_null (Eval_ctx.transient db) m ann "BusSchedule" with
  | [ (_, Explain.Source_relation_absent [ "SBPS" ]) ] -> ()
  | _ -> Alcotest.fail "expected Source_relation_absent [SBPS]");
  (* An unmapped column reports Not_mapped. *)
  let m2 = Mapping.remove_correspondence m "BusSchedule" in
  let view2 = Mapping_eval.target_view (Eval_ctx.transient db) m2 in
  let ann2 =
    Relation.tuples view2
    |> List.find (fun t ->
           Value.equal
             (Tuple.value (Relation.schema view2) t (Attr.make "Kids" "name"))
             (Value.String "Ann"))
  in
  match Explain.why_null (Eval_ctx.transient db) m2 ann2 "BusSchedule" with
  | (_, Explain.Not_mapped) :: _ -> ()
  | _ -> Alcotest.fail "expected Not_mapped"

(* --- HTML report --- *)

let test_html_report () =
  let html = Report_html.page ~short:Paperdata.Figure1.short (Eval_ctx.transient db) Paperdata.Running.mapping in
  List.iter
    (fun sub -> Alcotest.(check bool) sub true (contains html sub))
    [
      "<!doctype html>";
      "Sufficient illustration";
      "CPPhS";
      "class=\"badge neg\"";
      "left join";
      "Target view";
      "</html>";
    ];
  (* Values are escaped. *)
  let m =
    Mapping.set_correspondence Paperdata.Running.mapping_g1
      (Correspondence.of_expr "name"
         (Expr.Const (Value.String "<script>alert(1)</script>")))
  in
  let html2 = Report_html.page (Eval_ctx.transient db) m in
  Alcotest.(check bool) "escaped" false (contains html2 "<script>alert");
  Alcotest.(check bool) "entity present" true (contains html2 "&lt;script&gt;")

(* Regression: a badge list shorter than the row list used to raise
   [Failure "nth"] from [List.nth] and abort the whole report; trailing rows
   must instead render with an empty badge cell. *)
let test_html_table_short_badges () =
  let rows = [ [| Value.Int 1 |]; [| Value.Int 2 |]; [| Value.Int 3 |] ] in
  let html =
    Report_html.table ~badges:[ ("P", true) ] ~headers:[ "a" ] rows
  in
  Alcotest.(check bool) "first row badged" true (contains html "badge pos");
  Alcotest.(check bool) "all rows rendered" true
    (contains html "<td>3</td>");
  Alcotest.(check bool) "unbadged cell" true (contains html "<td></td>")

let test_html_cyclic_graph_uses_canonical_sql () =
  let eq r1 c1 r2 c2 = Predicate.eq_cols (Attr.make r1 c1) (Attr.make r2 c2) in
  let g =
    Qgraph.make
      [ ("Children", "Children"); ("Parents", "Parents"); ("PhoneDir", "PhoneDir") ]
      [
        ("Children", "Parents", eq "Children" "fid" "Parents" "ID");
        ("Parents", "PhoneDir", eq "Parents" "ID" "PhoneDir" "ID");
        ("Children", "PhoneDir", eq "Children" "ID" "PhoneDir" "ID");
      ]
  in
  let m =
    Mapping.make ~graph:g ~target:"Kids" ~target_cols:[ "ID" ]
      ~correspondences:[ Clio.corr_identity "ID" "Children" "ID" ] ()
  in
  let html = Report_html.page (Eval_ctx.transient db) m in
  Alcotest.(check bool) "canonical form" true (contains html "from D(G)")

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "extensions"
    [
      ( "profile",
        [
          tc "children id" `Quick test_profile_children_id;
          tc "null rate" `Quick test_profile_null_rate;
          tc "key candidates" `Quick test_profile_key_candidates;
          tc "render" `Quick test_profile_render;
          tc "whole database" `Quick test_profile_database_covers_all_columns;
        ] );
      ( "suggest",
        [
          tc "two relations" `Quick test_suggest_two_relations;
          tc "three relations" `Quick test_suggest_three_relations;
          tc "mappings_for" `Quick test_suggest_mappings_for;
          tc "FamilyIncome via two copies" `Quick test_family_income_two_copies;
        ] );
      ( "session",
        [
          tc "undo/redo" `Quick test_session_undo_redo;
          tc "apply truncates redo" `Quick test_session_apply_truncates_redo;
          tc "undo at start" `Quick test_session_undo_at_start_is_identity;
        ] );
      ( "project",
        [
          tc "materialize" `Quick test_project_materialize;
          tc "empty" `Quick test_project_empty_materializes_empty;
          tc "completeness" `Quick test_project_completeness;
          tc "retract" `Quick test_project_retract;
          tc "mismatch rejected" `Quick test_project_rejects_mismatch;
        ] );
      ( "explain",
        [
          tc "positive row" `Quick test_explain_positive_row;
          tc "why null" `Quick test_explain_why_null;
        ] );
      ( "html-report",
        [
          tc "report" `Quick test_html_report;
          tc "short badges" `Quick test_html_table_short_badges;
          tc "cyclic canonical" `Quick test_html_cyclic_graph_uses_canonical_sql;
        ] );
    ]
