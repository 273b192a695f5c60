(* Tests for correspondences, mapping construction/validation, mapping query
   evaluation (Definition 3.14) and SQL generation (canonical + Section 2
   outer-join form). *)

open Relational
module Qgraph = Querygraph.Qgraph
open Clio

let v_int i = Value.Int i
let v_str s = Value.String s
let mk name cols rows = Relation.create name (Schema.make name cols) rows
let eq r1 c1 r2 c2 = Predicate.eq_cols (Attr.make r1 c1) (Attr.make r2 c2)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* source: Emp(id, name, sal, did) — Dept(id, dname) *)
let db =
  Database.of_relations
    [
      mk "Emp" [ "id"; "name"; "sal"; "did" ]
        [
          Tuple.make [ v_int 1; v_str "ann"; v_int 100; v_int 10 ];
          Tuple.make [ v_int 2; v_str "bob"; v_int 200; v_int 20 ];
          Tuple.make [ v_int 3; v_str "cat"; v_int 300; Value.Null ];
        ];
      mk "Dept" [ "id"; "dname" ]
        [ Tuple.make [ v_int 10; v_str "toys" ]; Tuple.make [ v_int 30; v_str "guns" ] ];
    ]

let graph =
  Qgraph.make
    [ ("Emp", "Emp"); ("Dept", "Dept") ]
    [ ("Emp", "Dept", eq "Emp" "did" "Dept" "id") ]

let base_mapping =
  Mapping.make ~graph ~target:"Out" ~target_cols:[ "eid"; "ename"; "dept"; "pay" ]
    ~correspondences:
      [
        Correspondence.identity "eid" (Attr.make "Emp" "id");
        Correspondence.identity "ename" (Attr.make "Emp" "name");
        Correspondence.identity "dept" (Attr.make "Dept" "dname");
        Correspondence.of_expr "pay"
          (Expr.Mul (Expr.col "Emp" "sal", Expr.Const (v_int 2)));
      ]
    ()

(* --- Correspondence --- *)

let test_correspondence_sources () =
  let c = Correspondence.of_expr "x" (Expr.Add (Expr.col "A" "a", Expr.col "B" "b")) in
  Alcotest.(check (list string)) "rels" [ "A"; "B" ] (Correspondence.source_rels c)

let test_correspondence_custom () =
  let c =
    Correspondence.custom "x" "sum" [ Attr.make "A" "a"; Attr.make "A" "b" ]
      (fun vs -> List.fold_left Value.add (v_int 0) vs)
  in
  let scheme = Schema.make "A" [ "a"; "b" ] in
  Alcotest.(check bool) "eval" true
    (Value.equal (v_int 7)
       (Correspondence.compile scheme c (Tuple.make [ v_int 3; v_int 4 ])));
  Alcotest.(check string) "sql" "sum(A.a, A.b) as x" (Correspondence.to_sql c)

let test_correspondence_rename () =
  let c = Correspondence.identity "x" (Attr.make "P" "a") in
  let c2 = Correspondence.rename_rel c ~from:"P" ~into:"P2" in
  Alcotest.(check (list string)) "renamed" [ "P2" ] (Correspondence.source_rels c2)

(* --- Mapping validation --- *)

let test_mapping_rejects_unknown_target_col () =
  Alcotest.check_raises "unknown col"
    (Invalid_argument "Mapping: correspondence for unknown target column zzz")
    (fun () ->
      ignore
        (Mapping.set_correspondence base_mapping
           (Correspondence.identity "zzz" (Attr.make "Emp" "id"))))

let test_mapping_rejects_unknown_source () =
  Alcotest.check_raises "unknown source"
    (Invalid_argument "Mapping: correspondence source Nope.id not in query graph")
    (fun () ->
      ignore
        (Mapping.set_correspondence base_mapping
           (Correspondence.identity "eid" (Attr.make "Nope" "id"))))

let test_mapping_rejects_disconnected_graph () =
  let g = Qgraph.make [ ("A", "A"); ("B", "B") ] [] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Mapping: query graph must be connected") (fun () ->
      ignore (Mapping.make ~graph:g ~target:"T" ~target_cols:[ "x" ] ()))

let test_mapping_set_correspondence_replaces () =
  let m =
    Mapping.set_correspondence base_mapping
      (Correspondence.identity "eid" (Attr.make "Emp" "sal"))
  in
  match Mapping.correspondence_for m "eid" with
  | Some c -> Alcotest.(check (list string)) "replaced" [ "Emp" ]
                (Correspondence.source_rels c)
  | None -> Alcotest.fail "missing"

let test_phi_strips_filters () =
  let m =
    Mapping.add_target_filter
      (Mapping.add_source_filter base_mapping
         (Predicate.Cmp (Predicate.Gt, Expr.col "Emp" "sal", Expr.Const (v_int 150))))
      (Predicate.Is_not_null (Expr.col "Out" "dept"))
  in
  let stripped = Mapping.phi m in
  Alcotest.(check int) "no source filters" 0
    (List.length stripped.Mapping.source_filters);
  Alcotest.(check int) "no target filters" 0
    (List.length stripped.Mapping.target_filters)

let test_referenced_aliases () =
  Alcotest.(check (list string)) "both" [ "Dept"; "Emp" ]
    (Mapping.referenced_aliases base_mapping)

(* --- Evaluation --- *)

let test_eval_unfiltered () =
  let r = Mapping_eval.eval (Eval_ctx.transient db) base_mapping in
  (* D(G): (1,toys) joined; 2 alone; 3 alone; dept 30 alone. *)
  Alcotest.(check int) "four rows" 4 (Relation.cardinality r)

let test_eval_applies_correspondences () =
  let r = Mapping_eval.eval (Eval_ctx.transient db) base_mapping in
  let s = Relation.schema r in
  let ann =
    Relation.tuples r
    |> List.find (fun t ->
           Value.equal (Tuple.value s t (Attr.make "Out" "ename")) (v_str "ann"))
  in
  Alcotest.(check bool) "pay = sal*2" true
    (Value.equal (v_int 200) (Tuple.value s ann (Attr.make "Out" "pay")));
  Alcotest.(check bool) "dept" true
    (Value.equal (v_str "toys") (Tuple.value s ann (Attr.make "Out" "dept")))

let test_eval_source_filter () =
  let m =
    Mapping.add_source_filter base_mapping
      (Predicate.Cmp (Predicate.Ge, Expr.col "Emp" "sal", Expr.Const (v_int 200)))
  in
  let r = Mapping_eval.eval (Eval_ctx.transient db) m in
  (* bob and cat pass; dept-only association has null sal -> filtered
     (strong-ish semantics: unknown collapses to false). *)
  Alcotest.(check int) "two rows" 2 (Relation.cardinality r)

let test_eval_target_filter () =
  let m =
    Mapping.add_target_filter base_mapping
      (Predicate.Is_not_null (Expr.col "Out" "eid"))
  in
  let r = Mapping_eval.eval (Eval_ctx.transient db) m in
  Alcotest.(check int) "emp-covering rows" 3 (Relation.cardinality r)

let test_examples_polarity () =
  let m =
    Mapping.add_target_filter base_mapping
      (Predicate.Is_not_null (Expr.col "Out" "eid"))
  in
  let exs = Mapping_eval.examples (Eval_ctx.transient db) m in
  Alcotest.(check int) "universe = D(G)" 4 (List.length exs);
  Alcotest.(check int) "positives" 3
    (List.length (List.filter Example.is_positive exs));
  (* The negative example still carries its would-be target tuple. *)
  let neg = List.find Example.is_negative exs in
  Alcotest.(check bool) "neg has dept" true
    (Value.equal (v_str "guns") neg.Example.target_tuple.(2))

let test_apply_one () =
  let m =
    Mapping.add_target_filter base_mapping
      (Predicate.Is_not_null (Expr.col "Out" "eid"))
  in
  let fd = Mapping_eval.data_associations (Eval_ctx.transient db) m in
  let pos =
    Fulldisj.Full_disjunction.categories fd
    |> List.concat_map (fun (c, assocs) ->
           if Fulldisj.Coverage.mem "Emp" c then assocs else [])
  in
  Alcotest.(check int) "3 emp assocs" 3 (List.length pos);
  List.iter
    (fun a ->
      match Mapping_eval.apply_one fd m a with
      | Some _ -> ()
      | None -> Alcotest.fail "expected Some")
    pos

(* Q_M over a D(G) computed outside the engine. *)
let eval_over fd m = Mapping_eval.apply fd m

let test_algorithms_agree_on_eval () =
  let served = Mapping_eval.eval (Eval_ctx.transient db) base_mapping in
  let src = Fulldisj.Source.of_db db in
  let naive = eval_over (Fulldisj.Full_disjunction.naive src graph) base_mapping in
  let outerjoin =
    eval_over (Fulldisj.Outerjoin_plan.full_disjunction src graph) base_mapping
  in
  Alcotest.(check bool) "served=naive" true (Relation.equal_contents served naive);
  Alcotest.(check bool) "served=outerjoin" true
    (Relation.equal_contents served outerjoin)

let test_unmapped_column_is_null () =
  let m = Mapping.remove_correspondence base_mapping "pay" in
  let r = Mapping_eval.eval (Eval_ctx.transient db) m in
  Relation.iter
    (fun t -> Alcotest.(check bool) "pay null" true (Value.is_null t.(3)))
    r

(* --- SQL generation --- *)

let section2_like =
  Mapping.add_target_filter base_mapping (Predicate.Is_not_null (Expr.col "Out" "eid"))

let test_canonical_sql () =
  let sql = Mapping_sql.canonical section2_like in
  Alcotest.(check bool) "select items" true (contains sql "Emp.id as eid");
  Alcotest.(check bool) "D(G)" true (contains sql "from D(G)");
  Alcotest.(check bool) "where target" true (contains sql "Out.eid is not null");
  Alcotest.(check bool) "min union doc" true (contains sql "F({Dept, Emp})")

let test_outer_join_sql () =
  let sql = Mapping_sql.outer_join ~root:"Emp" section2_like in
  Alcotest.(check bool) "from root" true (contains sql "from Emp");
  Alcotest.(check bool) "left join" true
    (contains sql "left join Dept on Emp.did = Dept.id");
  Alcotest.(check bool) "pulled back filter" true (contains sql "Emp.id is not null")

let test_outer_join_sql_required_promotes_inner () =
  let m =
    Mapping.add_target_filter section2_like
      (Predicate.Is_not_null (Expr.col "Out" "dept"))
  in
  let sql = Mapping_sql.outer_join ~root:"Emp" m in
  Alcotest.(check bool) "inner join" true
    (contains sql "join Dept on Emp.did = Dept.id");
  Alcotest.(check bool) "not left" false
    (contains sql "left join Dept on Emp.did = Dept.id")

let test_pullback () =
  let m =
    Mapping.add_target_filter base_mapping
      (Predicate.Cmp (Predicate.Lt, Expr.col "Out" "pay", Expr.Const (v_int 500)))
  in
  match Mapping_sql.pullback_target_filters m with
  | [ p ] ->
      Alcotest.(check string) "substituted" "(Emp.sal * 2) < 500" (Predicate.to_sql p)
  | _ -> Alcotest.fail "expected one predicate"

let test_rooted_equivalent () =
  Alcotest.(check bool) "rooted = Q_M" true
    (Mapping_sql.rooted_equivalent (Eval_ctx.transient db) ~root:"Emp" section2_like);
  (* Without the root-forcing filter they differ: Q_M keeps the dept-only
     association. *)
  Alcotest.(check bool) "differs without filter" false
    (Mapping_sql.rooted_equivalent (Eval_ctx.transient db) ~root:"Emp" base_mapping)

let test_aliased_copy_sql () =
  let g =
    Qgraph.make
      [ ("Emp", "Emp"); ("Emp2", "Emp") ]
      [ ("Emp", "Emp2", eq "Emp" "did" "Emp2" "id") ]
  in
  let m =
    Mapping.make ~graph:g ~target:"T" ~target_cols:[ "a" ]
      ~correspondences:[ Correspondence.identity "a" (Attr.make "Emp2" "name") ]
      ()
  in
  let sql = Mapping_sql.outer_join ~root:"Emp" m in
  Alcotest.(check bool) "copy aliased" true (contains sql "left join Emp Emp2")

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "mapping"
    [
      ( "correspondence",
        [
          tc "sources" `Quick test_correspondence_sources;
          tc "custom" `Quick test_correspondence_custom;
          tc "rename" `Quick test_correspondence_rename;
        ] );
      ( "validation",
        [
          tc "unknown target col" `Quick test_mapping_rejects_unknown_target_col;
          tc "unknown source" `Quick test_mapping_rejects_unknown_source;
          tc "disconnected graph" `Quick test_mapping_rejects_disconnected_graph;
          tc "set replaces" `Quick test_mapping_set_correspondence_replaces;
          tc "phi" `Quick test_phi_strips_filters;
          tc "referenced aliases" `Quick test_referenced_aliases;
        ] );
      ( "eval",
        [
          tc "unfiltered" `Quick test_eval_unfiltered;
          tc "correspondences" `Quick test_eval_applies_correspondences;
          tc "source filter" `Quick test_eval_source_filter;
          tc "target filter" `Quick test_eval_target_filter;
          tc "examples polarity" `Quick test_examples_polarity;
          tc "apply one" `Quick test_apply_one;
          tc "algorithms agree" `Quick test_algorithms_agree_on_eval;
          tc "unmapped null" `Quick test_unmapped_column_is_null;
        ] );
      ( "sql",
        [
          tc "canonical" `Quick test_canonical_sql;
          tc "outer join" `Quick test_outer_join_sql;
          tc "required promotes inner" `Quick test_outer_join_sql_required_promotes_inner;
          tc "pullback" `Quick test_pullback;
          tc "rooted equivalent" `Quick test_rooted_equivalent;
          tc "aliased copy" `Quick test_aliased_copy_sql;
        ] );
    ]
