(* Tests for the engine-level extras: the chase's value lookup
   ([Database.find_value] over interned columns), the hash join against
   its nested-loop oracle, the automatic attribute matcher, and
   target-constraint-derived filters.  QCheck properties check the value
   lookup against a boxed count, the join against the nested loop and the
   parser against the SQL printer. *)

open Relational
module Qgraph = Querygraph.Qgraph

let db = Paperdata.Figure1.database
let v_int i = Value.Int i
let mk name cols rows = Relation.create name (Schema.make name cols) rows

(* --- Database.find_value --- *)

(* Oracle: box every stored tuple and count the [Value.equal] cells per
   column, in relation-then-column order. *)
let boxed_count db v =
  if Value.is_null v then []
  else
    List.concat_map
      (fun r ->
        let schema = Relation.schema r in
        Array.to_list (Schema.attrs schema)
        |> List.filter_map (fun a ->
               let p = Schema.index schema a in
               let count =
                 Relation.fold
                   (fun acc t -> if Value.equal t.(p) v then acc + 1 else acc)
                   0 r
               in
               if count > 0 then Some (Relation.name r, a.Attr.name, count)
               else None))
      (Database.relations db)

let prop_find_value_agrees =
  QCheck2.Test.make ~name:"Database.find_value = boxed count" ~count:40
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 1 30))
    (fun (seed, rows) ->
      let st = Random.State.make [| seed |] in
      let inst = Synth.Gen_graph.chain st ~n:3 ~rows () in
      let db = inst.Synth.Gen_graph.db in
      List.for_all
        (fun v -> Database.find_value db v = boxed_count db v)
        [ Value.Int 0; Value.Int (rows / 2); Value.Int (rows * 2); Value.Null ])

(* --- join implementations --- *)

let left =
  mk "L" [ "k"; "v" ]
    [
      Tuple.make [ v_int 1; v_int 10 ];
      Tuple.make [ v_int 1; v_int 11 ];
      Tuple.make [ v_int 2; v_int 12 ];
      Tuple.make [ Value.Null; v_int 13 ];
    ]

let right =
  mk "R" [ "k"; "w" ]
    [
      Tuple.make [ v_int 1; v_int 20 ];
      Tuple.make [ v_int 3; v_int 21 ];
      Tuple.make [ Value.Null; v_int 22 ];
    ]

let kpred = Predicate.eq_cols (Attr.make "L" "k") (Attr.make "R" "k")

let test_join_impls_agree () =
  let h = Algebra.join kpred left right in
  let n = Algebra.join_nested_loop kpred left right in
  Alcotest.(check bool) "nl = hash" true (Relation.equal_contents h n);
  (* two L rows with k=1 × one R row. *)
  Alcotest.(check int) "cardinality" 2 (Relation.cardinality h)

let prop_join_impls_agree =
  QCheck2.Test.make ~name:"hash = nested-loop" ~count:60
    QCheck2.Gen.(triple (int_range 0 10000) (int_range 0 25) (int_range 0 25))
    (fun (seed, nl, nr) ->
      let st = Random.State.make [| seed |] in
      let tuples n name =
        List.init n (fun i ->
            Tuple.make
              [
                (if Random.State.float st 1.0 < 0.2 then Value.Null
                 else v_int (Random.State.int st 5));
                v_int i;
              ])
        |> fun ts -> mk name [ "k"; "p" ] ts
      in
      let l = tuples nl "L" and r = tuples nr "R" in
      let p = Predicate.eq_cols (Attr.make "L" "k") (Attr.make "R" "k") in
      Relation.equal_contents (Algebra.join p l r) (Algebra.join_nested_loop p l r))

(* --- Match --- *)

let test_name_similarity () =
  Alcotest.(check bool) "identical" true (Schemakb.Match.name_similarity "ID" "ID" = 1.0);
  Alcotest.(check bool) "case/underscore" true
    (Schemakb.Match.name_similarity "contact_ph" "contactPh" = 1.0);
  Alcotest.(check bool) "token containment" true
    (Schemakb.Match.name_similarity "contactPhone" "phone" >= 0.75);
  Alcotest.(check bool) "unrelated low" true
    (Schemakb.Match.name_similarity "salary" "location" < 0.55)

let test_suggest_for_kids () =
  let candidates =
    Schemakb.Match.suggest db ~target_cols:[ "ID"; "name"; "BusSchedule" ]
  in
  let best col =
    List.find (fun c -> c.Schemakb.Match.target_col = col) candidates
  in
  (* name only exists in Children. *)
  Alcotest.(check string) "name from Children" "Children"
    (best "name").Schemakb.Match.source.Attr.rel;
  (* ID matches several relations; the matcher proposes, the user picks. *)
  Alcotest.(check bool) "ID has candidates" true
    (List.exists (fun c -> c.Schemakb.Match.target_col = "ID") candidates)

let test_best_per_target_is_single () =
  let candidates = Schemakb.Match.best_per_target db ~target_cols:[ "ID"; "name" ] in
  let per col =
    List.length (List.filter (fun c -> c.Schemakb.Match.target_col = col) candidates)
  in
  Alcotest.(check bool) "at most one each" true (per "ID" <= 1 && per "name" <= 1)

let test_threshold_filters () =
  let none =
    Schemakb.Match.suggest ~threshold:1.1 db ~target_cols:[ "ID"; "name" ]
  in
  Alcotest.(check int) "nothing above 1.1" 0 (List.length none)

(* --- Target_constraints --- *)

let test_filters_of () =
  let constraints =
    [
      Integrity.Not_null ("Kids", "ID");
      Integrity.Primary_key ("Kids", [ "ID" ]);
      Integrity.Not_null ("Other", "x");
    ]
  in
  match Clio.Target_constraints.filters_of constraints ~target:"Kids" with
  | [ p ] -> Alcotest.(check string) "one dedup filter" "Kids.ID is not null"
               (Predicate.to_sql p)
  | ps -> Alcotest.failf "expected one filter, got %d" (List.length ps)

let test_apply_reproduces_paper_behavior () =
  (* The fig9 mapping minus its hand-written C_T, plus a declared target
     not-null, must reproduce the same target view. *)
  let m = Paperdata.Running.mapping in
  let bare = Clio.Mapping.remove_target_filter m Paperdata.Running.id_required in
  let constrained =
    Clio.Target_constraints.apply [ Integrity.Not_null ("Kids", "ID") ] bare
  in
  Alcotest.(check bool) "same view" true
    (Relation.equal_contents
       (Clio.Mapping_eval.target_view (Clio.Eval_ctx.transient db) m)
       (Clio.Mapping_eval.target_view (Clio.Eval_ctx.transient db) constrained));
  (* Idempotent. *)
  let again =
    Clio.Target_constraints.apply [ Integrity.Not_null ("Kids", "ID") ] constrained
  in
  Alcotest.(check int) "no duplicate filters" 1
    (List.length again.Clio.Mapping.target_filters)

(* --- parser ⟷ printer round trip (property) --- *)

let expr_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            map (fun i -> Expr.Const (Value.Int i)) (int_range 0 9);
            return (Expr.Const Value.Null);
            map (fun c -> Expr.col "R" (String.make 1 c)) (char_range 'a' 'c');
          ]
      in
      if n <= 1 then leaf
      else
        oneof
          [
            leaf;
            map2 (fun a b -> Expr.Add (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Expr.Mul (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Expr.Concat (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Expr.Coalesce (a, b)) (self (n / 2)) (self (n / 2));
          ])

let pred_gen =
  let open QCheck2.Gen in
  let cmp =
    oneofl [ Predicate.Eq; Predicate.Neq; Predicate.Lt; Predicate.Le; Predicate.Gt; Predicate.Ge ]
  in
  sized @@ fix (fun self n ->
      let atom =
        oneof
          [
            map3 (fun op a b -> Predicate.Cmp (op, a, b)) cmp (expr_gen |> map Fun.id)
              expr_gen;
            map (fun e -> Predicate.Is_null e) expr_gen;
            map (fun e -> Predicate.Is_not_null e) expr_gen;
          ]
      in
      if n <= 1 then atom
      else
        oneof
          [
            atom;
            map2 (fun a b -> Predicate.And (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Predicate.Or (a, b)) (self (n / 2)) (self (n / 2));
            map (fun a -> Predicate.Not a) (self (n - 1));
          ])

let abc_schema = Schema.make "R" [ "a"; "b"; "c" ]

let random_tuples =
  List.init 16 (fun i ->
      Tuple.make
        [
          (if i mod 4 = 0 then Value.Null else v_int (i mod 3));
          (if i mod 5 = 0 then Value.Null else v_int (i mod 4));
          v_int (i mod 2);
        ])

let prop_pred_roundtrip =
  QCheck2.Test.make ~name:"parse (to_sql p) ≡ p" ~count:300 pred_gen (fun p ->
      match Parse.predicate_opt (Predicate.to_sql p) with
      | None -> false
      | Some p' ->
          let f = Predicate.compile abc_schema p in
          let f' = Predicate.compile abc_schema p' in
          List.for_all (fun t -> f t = f' t) random_tuples)

let prop_expr_roundtrip =
  QCheck2.Test.make ~name:"parse (to_sql e) ≡ e" ~count:300 expr_gen (fun e ->
      match Parse.expr_opt (Expr.to_sql e) with
      | None -> false
      | Some e' ->
          let f = Expr.compile abc_schema e in
          let f' = Expr.compile abc_schema e' in
          List.for_all (fun t -> Value.equal (f t) (f' t)) random_tuples)

let qtest t = QCheck_alcotest.to_alcotest ~long:false t

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "engine_extras"
    [
      ("find_value", [ qtest prop_find_value_agrees ]);
      ( "joins",
        [
          tc "implementations agree" `Quick test_join_impls_agree;
          qtest prop_join_impls_agree;
        ] );
      ( "match",
        [
          tc "name similarity" `Quick test_name_similarity;
          tc "suggest for Kids" `Quick test_suggest_for_kids;
          tc "best per target" `Quick test_best_per_target_is_single;
          tc "threshold" `Quick test_threshold_filters;
        ] );
      ( "target_constraints",
        [
          tc "filters_of" `Quick test_filters_of;
          tc "paper behaviour" `Quick test_apply_reproduces_paper_behavior;
        ] );
      ( "parser-printer",
        [ qtest prop_pred_roundtrip; qtest prop_expr_roundtrip ] );
    ]
