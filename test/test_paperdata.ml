(* Checks that the reconstructed Figure 1 database satisfies every claim the
   paper's prose makes about the data, and that the running-example figures
   come out as the paper describes (experiments F1, F7, F8, F9, E3.10,
   E3.12, E4.3). *)

open Relational
open Fulldisj
module Qgraph = Querygraph.Qgraph
module Subgraphs = Querygraph.Subgraphs

let db = Paperdata.Figure1.database
let lookup = Database.find db

let coverage_labels fd =
  Array.to_list
    (Array.map (Coverage.label ~short:Paperdata.Figure1.short)
       fd.Full_disjunction.coverage)

let sorted_counts fd =
  Full_disjunction.categories fd
  |> List.map (fun (cov, assocs) ->
         (Coverage.label ~short:Paperdata.Figure1.short cov, List.length assocs))
  |> List.sort compare

(* --- Figure 1: integrity of the source database --- *)

let test_constraints_hold () =
  match Database.check db with
  | [] -> ()
  | violations ->
      Alcotest.failf "constraint violations: %s"
        (String.concat "; "
           (List.map (fun v -> v.Integrity.detail) violations))

let test_relation_sizes () =
  let size name = Relation.cardinality (Database.get db name) in
  Alcotest.(check int) "Children" 4 (size "Children");
  Alcotest.(check int) "Parents" 9 (size "Parents");
  Alcotest.(check int) "PhoneDir" 9 (size "PhoneDir");
  Alcotest.(check int) "SBPS" 4 (size "SBPS");
  Alcotest.(check int) "XmasBar" 2 (size "XmasBar");
  Alcotest.(check int) "ClassSched" 2 (size "ClassSched")

(* Every parent of a child has a phone entry (the premise behind Example
   3.10 and Example 4.3's empty categories). *)
let test_child_linked_parents_have_phones () =
  let children = Database.get db "Children" in
  let phone_ids =
    Relation.column_values (Database.get db "PhoneDir") (Attr.make "PhoneDir" "ID")
  in
  let cs = Relation.schema children in
  Relation.iter
    (fun t ->
      List.iter
        (fun col ->
          let v = Tuple.value cs t (Attr.make "Children" col) in
          if not (Value.is_null v) then
            Alcotest.(check bool)
              (Printf.sprintf "parent %s has phone" (Value.to_string v))
              true
              (List.exists (Value.equal v) phone_ids))
        [ "mid"; "fid" ])
    children

let test_205_has_phone_no_children () =
  let children = Database.get db "Children" in
  let cs = Relation.schema children in
  let refs_205 t =
    List.exists
      (fun col -> Value.equal (Tuple.value cs t (Attr.make "Children" col))
                    (Value.String "205"))
      [ "mid"; "fid" ]
  in
  Alcotest.(check bool) "205 childless" false (Relation.fold (fun acc t -> acc || refs_205 t) false children);
  let phones =
    Relation.column_values (Database.get db "PhoneDir") (Attr.make "PhoneDir" "ID")
  in
  Alcotest.(check bool) "205 has phone" true
    (List.exists (Value.equal (Value.String "205")) phones)

(* The Section 2 chase: "002 appears in one attribute of SBPS and in two
   attributes of XmasBar" (plus Children.ID itself). *)
let test_chase_002_occurrences () =
  let occs = Database.find_value db (Value.String "002") in
  let in_rel name = List.filter (fun (r, _, _) -> String.equal r name) occs in
  Alcotest.(check int) "SBPS attrs" 1 (List.length (in_rel "SBPS"));
  Alcotest.(check int) "XmasBar attrs" 2 (List.length (in_rel "XmasBar"));
  Alcotest.(check int) "Children attrs" 1 (List.length (in_rel "Children"))

(* A typed value resolves the way the CLI's [occurrences] and the
   script's [chase] read it: the literal string when Figure 1 holds it,
   the parsed cell otherwise. *)
let test_value_of_text () =
  let value = Alcotest.testable Value.pp Value.equal in
  let key = Database.value_of_text db "002" in
  Alcotest.check value "002 is the string key" (Value.String "002") key;
  Alcotest.(check (list (triple string string int)))
    "002 found once in each ID column"
    [
      ("Children", "ID", 1);
      ("SBPS", "ID", 1);
      ("XmasBar", "sellerID", 1);
      ("XmasBar", "buyerID", 1);
    ]
    (Database.find_value db key);
  let age = Database.value_of_text db "5" in
  Alcotest.check value "5 is an integer" (Value.Int 5) age;
  Alcotest.(check (list (triple string string int)))
    "5 is a child's age" [ ("Children", "age", 1) ] (Database.find_value db age)

(* --- Figure 6 / Example 3.12: induced connected subgraphs of G --- *)

let test_subgraphs_of_g () =
  let sets = Subgraphs.connected_node_sets Paperdata.Running.graph_g in
  let expected =
    [
      [ "Children" ];
      [ "Parents" ];
      [ "PhoneDir" ];
      [ "Children"; "Parents" ];
      [ "Parents"; "PhoneDir" ];
      [ "Children"; "Parents"; "PhoneDir" ];
    ]
  in
  Alcotest.(check int) "six induced connected subgraphs" 6 (List.length sets);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (String.concat "," e) true
        (List.exists (fun s -> s = List.sort String.compare e) sets))
    expected

(* --- Figure 7 / Example 3.7: t, u, v --- *)

let test_figure7 () =
  let f_g1 = Join_eval.full_associations (Source.of_fn lookup) Paperdata.Running.graph_g1 in
  (* Maya joined with her mother 103 is a full association of G1. *)
  let s = Relation.schema f_g1 in
  let maya =
    Relation.tuples f_g1
    |> List.find_opt (fun t ->
           Value.equal (Tuple.value s t (Attr.make "Children" "name"))
             (Value.String "Maya"))
  in
  (match maya with
  | None -> Alcotest.fail "no full association for Maya in F(G1)"
  | Some t ->
      Alcotest.(check string) "mother id" "103"
        (Value.to_string (Tuple.value s t (Attr.make "Parents" "ID"))));
  (* Padding it to G2's scheme gives a possible association u of G2,
     strictly subsumed by the full association v (mother's phone). *)
  let f_g2 = Join_eval.full_associations (Source.of_fn lookup) Paperdata.Running.graph_g2 in
  let padded = Algebra.pad f_g1 (Relation.schema f_g2) in
  let u =
    Relation.tuples padded
    |> List.find (fun t ->
           Value.equal
             (Tuple.value (Relation.schema padded) t (Attr.make "Children" "name"))
             (Value.String "Maya"))
  in
  let subsumer =
    Relation.tuples f_g2 |> List.filter (fun v -> Tuple.strictly_subsumes v u)
  in
  Alcotest.(check int) "v strictly subsumes u" 1 (List.length subsumer)

(* --- Example 3.10: R1 ⊕ R2 = R2 --- *)

let test_example_3_10 () =
  let r1 = Join_eval.full_associations (Source.of_fn lookup) Paperdata.Running.graph_g1 in
  let r2 = Join_eval.full_associations (Source.of_fn lookup) Paperdata.Running.graph_g2 in
  let mu = Min_union.min_union r1 r2 in
  Alcotest.(check bool) "R1 (+) R2 = R2" true
    (Relation.equal_contents mu (Algebra.pad r2 (Relation.schema mu)))

(* --- Figure 8: D(G) with coverage tags --- *)

let test_figure8_categories () =
  let fd = Full_disjunction.compute (Source.of_fn lookup) Paperdata.Running.graph_g in
  Alcotest.(check (list (pair string int)))
    "coverage histogram"
    (List.sort compare [ ("C", 1); ("P", 1); ("Ph", 1); ("PPh", 5); ("CPPh", 3) ])
    (sorted_counts fd);
  Alcotest.(check int) "11 data associations" 11
    (Relation.cardinality fd.Full_disjunction.rows)

(* Empty categories: CP is empty because no mother lacks a phone. *)
let test_figure8_empty_categories () =
  let fd = Full_disjunction.compute (Source.of_fn lookup) Paperdata.Running.graph_g in
  let labels = coverage_labels fd in
  Alcotest.(check bool) "no CP association" false (List.mem "CP" labels)

(* --- Figure 9 / Example 4.3: the running mapping's categories --- *)

let fig9_fd = lazy (Full_disjunction.compute (Source.of_fn lookup) Paperdata.Running.fig9_graph)

let test_figure9_categories () =
  let fd = Lazy.force fig9_fd in
  Alcotest.(check (list (pair string int)))
    "coverage histogram"
    (List.sort compare
       [ ("CPPhS", 3); ("CPPh", 1); ("PPh", 4); ("P", 1); ("Ph", 1); ("S", 1) ])
    (sorted_counts fd)

let test_figure9_no_C_CP_CPS () =
  let fd = Lazy.force fig9_fd in
  let labels = coverage_labels fd in
  List.iter
    (fun l ->
      Alcotest.(check bool) ("no " ^ l ^ " association") false (List.mem l labels))
    [ "C"; "CP"; "CPS"; "CS" ]

(* --- the running mapping's target view (WYSIWYG) --- *)

let test_running_mapping_target_view () =
  let view = Clio.Mapping_eval.target_view (Clio.Eval_ctx.transient db) Paperdata.Running.mapping in
  let names =
    Relation.column_values view (Attr.make "Kids" "name")
    |> List.map Value.to_string |> List.sort compare
  in
  (* Bob is 8: the C_S filter [age < 7] excludes him. *)
  Alcotest.(check (list string)) "kids under 7" [ "Ann"; "Joe"; "Maya" ] names

let test_running_mapping_ann_has_null_bus () =
  let view = Clio.Mapping_eval.target_view (Clio.Eval_ctx.transient db) Paperdata.Running.mapping in
  let s = Relation.schema view in
  let ann =
    Relation.tuples view
    |> List.find (fun t ->
           Value.equal (Tuple.value s t (Attr.make "Kids" "name")) (Value.String "Ann"))
  in
  Alcotest.(check bool) "Ann's BusSchedule is null" true
    (Value.is_null (Tuple.value s ann (Attr.make "Kids" "BusSchedule")));
  Alcotest.(check string) "Ann's contactPh" "cell:555-0106"
    (Value.to_string (Tuple.value s ann (Attr.make "Kids" "contactPh")))

(* --- Section 2 final mapping: all four kids, outer semantics --- *)

(* Example 3.13: the target predicate [Kids.ID <> null] and the source
   predicate ¬(all Children attributes null) are alternative formulations;
   the paper notes they are "not necessarily equivalent", but on this
   instance (where Children.ID is a non-null key) they select the same
   target tuples. *)
let test_example_3_13_filter_formulations () =
  let m = Paperdata.Running.mapping in
  let via_target = m in
  let source_pred =
    Relational.Predicate.Not
      (Relational.Predicate.conj
         (List.map
            (fun col -> Relational.Predicate.Is_null (Expr.col "Children" col))
            [ "ID"; "name"; "age"; "mid"; "fid"; "docid" ]))
  in
  let via_source =
    Clio.Mapping.add_source_filter
      (Clio.Mapping.remove_target_filter m Paperdata.Running.id_required)
      source_pred
  in
  Alcotest.(check bool) "same target tuples" true
    (Relation.equal_contents
       (Clio.Mapping_eval.eval (Clio.Eval_ctx.transient db) via_target)
       (Clio.Mapping_eval.eval (Clio.Eval_ctx.transient db) via_source))

let test_section2_target_view () =
  let view = Clio.Mapping_eval.target_view (Clio.Eval_ctx.transient db) Paperdata.Running.section2_mapping in
  Alcotest.(check int) "four kids" 4 (Relation.cardinality view);
  let s = Relation.schema view in
  let bob =
    Relation.tuples view
    |> List.find (fun t ->
           Value.equal (Tuple.value s t (Attr.make "Kids" "name")) (Value.String "Bob"))
  in
  (* Bob is motherless: contactPh (mother's phone) is null, but he is
     present thanks to the outer semantics. *)
  Alcotest.(check bool) "Bob's contactPh null" true
    (Value.is_null (Tuple.value s bob (Attr.make "Kids" "contactPh")));
  Alcotest.(check string) "Bob's affiliation (father)" "HP"
    (Value.to_string (Tuple.value s bob (Attr.make "Kids" "affiliation")))

let () =
  Alcotest.run "paperdata"
    [
      ( "figure1",
        [
          Alcotest.test_case "constraints hold" `Quick test_constraints_hold;
          Alcotest.test_case "relation sizes" `Quick test_relation_sizes;
          Alcotest.test_case "child-linked parents have phones" `Quick
            test_child_linked_parents_have_phones;
          Alcotest.test_case "205 childless with phone" `Quick
            test_205_has_phone_no_children;
          Alcotest.test_case "002 occurrences" `Quick test_chase_002_occurrences;
          Alcotest.test_case "typed values resolve like the chase" `Quick
            test_value_of_text;
        ] );
      ( "figures",
        [
          Alcotest.test_case "E3.12 subgraphs of G" `Quick test_subgraphs_of_g;
          Alcotest.test_case "F7 t, u, v" `Quick test_figure7;
          Alcotest.test_case "E3.10 min union" `Quick test_example_3_10;
          Alcotest.test_case "F8 categories" `Quick test_figure8_categories;
          Alcotest.test_case "F8 empty categories" `Quick test_figure8_empty_categories;
          Alcotest.test_case "F9 categories" `Quick test_figure9_categories;
          Alcotest.test_case "F9 empty categories" `Quick test_figure9_no_C_CP_CPS;
        ] );
      ( "mappings",
        [
          Alcotest.test_case "running target view" `Quick
            test_running_mapping_target_view;
          Alcotest.test_case "E3.13 filter formulations" `Quick
            test_example_3_13_filter_formulations;
          Alcotest.test_case "Ann null bus" `Quick test_running_mapping_ann_has_null_bus;
          Alcotest.test_case "section 2 target view" `Quick test_section2_target_view;
        ] );
    ]
