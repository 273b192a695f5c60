(* Unit tests for the relational substrate: values, schemas, tuples,
   predicates, algebra (joins / outer joins / outer union), constraints,
   database catalog, CSV round-trips and rendering. *)

open Relational

let v_int i = Value.Int i
let v_str s = Value.String s
let attr = Alcotest.testable Attr.pp Attr.equal
let value = Alcotest.testable Value.pp Value.equal
let tuple = Alcotest.testable Tuple.pp Tuple.equal

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- Value --- *)

let test_value_equal () =
  Alcotest.(check bool) "null = null" true (Value.equal Value.Null Value.Null);
  Alcotest.(check bool) "1 = 1" true (Value.equal (v_int 1) (v_int 1));
  Alcotest.(check bool) "1 <> 2" false (Value.equal (v_int 1) (v_int 2));
  Alcotest.(check bool) "1 <> '1'" false (Value.equal (v_int 1) (v_str "1"));
  (* Regression: equal must be the kernel of compare — compare already said
     Int 1 = Float 1.0 and nan = nan while equal disagreed, so sort-based
     dedup and hash-based indexes could identify different tuple pairs. *)
  Alcotest.(check bool) "int = numerically equal float" true
    (Value.equal (v_int 1) (Value.Float 1.0));
  Alcotest.(check bool) "int <> other float" false
    (Value.equal (v_int 1) (Value.Float 1.5));
  Alcotest.(check bool) "nan reflexive (as compare says)" true
    (Value.equal (Value.Float Float.nan) (Value.Float Float.nan));
  Alcotest.(check bool) "signed zeros equal" true
    (Value.equal (Value.Float (-0.)) (Value.Float 0.))

(* The laws the three primitives must satisfy pairwise, on a value domain
   dense in the historical disagreement spots (mixed numerics, nan, signed
   zeros). *)
let value_gen =
  QCheck2.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) (int_range (-4) 4);
        map (fun f -> Value.Float f) (oneofl [ -1.5; -0.; 0.; 1.0; 2.0; 2.5; Float.nan; Float.infinity; Float.neg_infinity ]);
        map (fun i -> Value.Float (float_of_int i)) (int_range (-4) 4);
        map (fun s -> Value.String s) (oneofl [ ""; "a"; "1" ]);
        map (fun b -> Value.Bool b) bool;
      ])

let law_equal_iff_compare =
  QCheck2.Test.make ~name:"equal a b <=> compare a b = 0" ~count:2000
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) -> Value.equal a b = (Value.compare a b = 0))

let law_equal_implies_hash =
  QCheck2.Test.make ~name:"equal a b ==> hash a = hash b" ~count:2000
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

let law_equal_reflexive =
  QCheck2.Test.make ~name:"equal reflexive (incl. nan)" ~count:500 value_gen
    (fun v -> Value.equal v v)

let test_value_compare_numeric () =
  Alcotest.(check int) "1 < 1.5" (-1) (Value.compare (v_int 1) (Value.Float 1.5));
  Alcotest.(check int) "2.5 > 2" 1 (Value.compare (Value.Float 2.5) (v_int 2));
  Alcotest.(check int) "equal across" 0 (Value.compare (v_int 2) (Value.Float 2.0))

let test_value_sql_eq_null () =
  Alcotest.(check (option bool)) "null = x unknown" None
    (Value.sql_eq Value.Null (v_int 1));
  Alcotest.(check (option bool)) "null = null unknown" None
    (Value.sql_eq Value.Null Value.Null);
  Alcotest.(check (option bool)) "1 = 1" (Some true) (Value.sql_eq (v_int 1) (v_int 1))

let test_value_arith () =
  Alcotest.(check value) "int add" (v_int 5) (Value.add (v_int 2) (v_int 3));
  Alcotest.(check value) "mixed add" (Value.Float 5.5)
    (Value.add (v_int 2) (Value.Float 3.5));
  Alcotest.(check value) "null propagates" Value.Null (Value.add Value.Null (v_int 1));
  Alcotest.(check value) "string add null" Value.Null (Value.add (v_str "x") (v_int 1));
  Alcotest.(check value) "sub" (v_int (-1)) (Value.sub (v_int 2) (v_int 3));
  Alcotest.(check value) "mul" (v_int 6) (Value.mul (v_int 2) (v_int 3))

let test_value_concat () =
  Alcotest.(check value) "concat" (v_str "ab") (Value.concat (v_str "a") (v_str "b"));
  Alcotest.(check value) "concat coerces" (v_str "a1")
    (Value.concat (v_str "a") (v_int 1));
  Alcotest.(check value) "concat null" Value.Null (Value.concat (v_str "a") Value.Null)

let test_value_csv_cell () =
  Alcotest.(check value) "empty is null" Value.Null (Value.of_csv_cell "");
  Alcotest.(check value) "null word" Value.Null (Value.of_csv_cell "NULL");
  Alcotest.(check value) "int" (v_int 42) (Value.of_csv_cell "42");
  Alcotest.(check value) "float" (Value.Float 4.5) (Value.of_csv_cell "4.5");
  Alcotest.(check value) "bool" (Value.Bool true) (Value.of_csv_cell "true");
  Alcotest.(check value) "string" (v_str "abc") (Value.of_csv_cell "abc")

let test_value_to_sql () =
  Alcotest.(check string) "null" "NULL" (Value.to_sql Value.Null);
  Alcotest.(check string) "string quoted" "'a''b'" (Value.to_sql (v_str "a'b"));
  Alcotest.(check string) "int" "7" (Value.to_sql (v_int 7));
  (* Regression: non-finite floats have no SQL literal; emit NULL rather than
     an unparsable "nan"/"inf" token. *)
  Alcotest.(check string) "nan" "NULL" (Value.to_sql (Value.Float Float.nan));
  Alcotest.(check string) "inf" "NULL" (Value.to_sql (Value.Float Float.infinity));
  Alcotest.(check string) "-inf" "NULL"
    (Value.to_sql (Value.Float Float.neg_infinity))

(* --- Attr / Schema --- *)

let test_attr_of_string () =
  Alcotest.(check attr) "parse" (Attr.make "R" "x") (Attr.of_string "R.x");
  Alcotest.check_raises "no dot" (Invalid_argument "Attr.of_string: missing '.' in x")
    (fun () -> ignore (Attr.of_string "x"))

let abc = Schema.make "R" [ "a"; "b"; "c" ]

let test_schema_index () =
  Alcotest.(check int) "b at 1" 1 (Schema.index abc (Attr.make "R" "b"));
  Alcotest.(check (option int)) "missing" None (Schema.index_opt abc (Attr.make "R" "z"));
  Alcotest.(check int) "arity" 3 (Schema.arity abc)

let test_schema_duplicate_rejected () =
  Alcotest.check_raises "dup"
    (Invalid_argument "Schema.of_attrs: duplicate attribute R.a") (fun () ->
      ignore (Schema.of_attrs [ Attr.make "R" "a"; Attr.make "R" "a" ]))

let test_schema_append_and_rels () =
  let s2 = Schema.make "S" [ "x" ] in
  let joined = Schema.append abc s2 in
  Alcotest.(check int) "arity 4" 4 (Schema.arity joined);
  Alcotest.(check (list string)) "rels" [ "R"; "S" ] (Schema.rels joined);
  Alcotest.(check (list int)) "positions of S" [ 3 ] (Schema.positions_of_rel joined "S")

let test_schema_rename () =
  let renamed = Schema.rename_rel abc ~from:"R" ~into:"R2" in
  Alcotest.(check int) "lookup renamed" 0 (Schema.index renamed (Attr.make "R2" "a"));
  Alcotest.(check (option int)) "old gone" None
    (Schema.index_opt renamed (Attr.make "R" "a"))

let test_schema_index_of_name () =
  let joined = Schema.append abc (Schema.make "S" [ "a"; "x" ]) in
  Alcotest.(check (option int)) "ambiguous a" None (Schema.index_of_name joined "a");
  Alcotest.(check (option int)) "unique x" (Some 4) (Schema.index_of_name joined "x")

(* --- Tuple --- *)

let t123 = Tuple.make [ v_int 1; v_int 2; v_int 3 ]

let test_tuple_subsumption () =
  let partial = Tuple.make [ v_int 1; Value.Null; v_int 3 ] in
  Alcotest.(check bool) "subsumes" true (Tuple.subsumes t123 partial);
  Alcotest.(check bool) "strict" true (Tuple.strictly_subsumes t123 partial);
  Alcotest.(check bool) "not reverse" false (Tuple.subsumes partial t123);
  Alcotest.(check bool) "self subsumes" true (Tuple.subsumes t123 t123);
  Alcotest.(check bool) "self not strict" false (Tuple.strictly_subsumes t123 t123);
  let other = Tuple.make [ v_int 9; Value.Null; v_int 3 ] in
  Alcotest.(check bool) "differing value" false (Tuple.subsumes t123 other)

let test_tuple_ops () =
  Alcotest.(check bool) "all null" true (Tuple.all_null (Tuple.nulls 3));
  Alcotest.(check bool) "not all null" false (Tuple.all_null t123);
  Alcotest.(check tuple) "project"
    (Tuple.make [ v_int 3; v_int 1 ])
    (Tuple.project t123 [ 2; 0 ]);
  Alcotest.(check tuple) "concat"
    (Tuple.make [ v_int 1; v_int 2; v_int 3; v_int 7 ])
    (Tuple.concat t123 (Tuple.make [ v_int 7 ]))

(* --- Relation --- *)

let mk_rel name cols rows = Relation.create name (Schema.make name cols) rows

let r_small =
  mk_rel "R" [ "a"; "b" ]
    [ Tuple.make [ v_int 1; v_str "x" ]; Tuple.make [ v_int 2; v_str "y" ] ]

let test_relation_dedup () =
  let r = mk_rel "R" [ "a" ] [ Tuple.make [ v_int 1 ]; Tuple.make [ v_int 1 ] ] in
  Alcotest.(check int) "dedup" 1 (Relation.cardinality r)

let test_relation_all_null_rejected () =
  Alcotest.check_raises "all null" (Invalid_argument "Relation.create R: all-null tuple")
    (fun () -> ignore (mk_rel "R" [ "a"; "b" ] [ Tuple.nulls 2 ]))

let test_relation_arity_mismatch () =
  Alcotest.check_raises "arity"
    (Invalid_argument "Relation.create R: tuple arity 1, schema arity 2") (fun () ->
      ignore (mk_rel "R" [ "a"; "b" ] [ Tuple.make [ v_int 1 ] ]))

let test_relation_column_values () =
  let r =
    mk_rel "R" [ "a"; "b" ]
      [
        Tuple.make [ v_int 1; v_int 0 ];
        Tuple.make [ v_int 2; v_int 0 ];
        Tuple.make [ v_int 2; v_int 1 ];
        Tuple.make [ Value.Null; v_int 0 ];
      ]
  in
  Alcotest.(check int) "non-null distinct" 2
    (List.length (Relation.column_values r (Attr.make "R" "a")))

(* --- Predicate --- *)

let ab_schema = Schema.make "R" [ "a"; "b" ]

let test_predicate_strongness () =
  let join_pred = Predicate.eq_cols (Attr.make "R" "a") (Attr.make "R" "b") in
  Alcotest.(check bool) "equi strong" true (Predicate.is_strong ab_schema join_pred);
  let weak = Predicate.Is_null (Expr.col "R" "a") in
  Alcotest.(check bool) "is_null weak" false (Predicate.is_strong ab_schema weak)

let test_predicate_three_valued () =
  let p = Predicate.Cmp (Predicate.Lt, Expr.col "R" "a", Expr.Const (v_int 5)) in
  let f = Predicate.compile ab_schema p in
  Alcotest.(check bool) "3 < 5" true (f (Tuple.make [ v_int 3; v_int 0 ]));
  Alcotest.(check bool) "7 < 5" false (f (Tuple.make [ v_int 7; v_int 0 ]));
  Alcotest.(check bool) "null < 5 is unknown -> false" false
    (f (Tuple.make [ Value.Null; v_int 0 ]))

let test_predicate_not_unknown () =
  (* NOT (null = 1) is unknown, collapses to false — not true. *)
  let p =
    Predicate.Not (Predicate.Cmp (Predicate.Eq, Expr.col "R" "a", Expr.Const (v_int 1)))
  in
  let f = Predicate.compile ab_schema p in
  Alcotest.(check bool) "not unknown = false" false
    (f (Tuple.make [ Value.Null; v_int 0 ]))

let test_predicate_or_with_unknown () =
  (* (null = 1) OR true = true. *)
  let p =
    Predicate.Or
      ( Predicate.Cmp (Predicate.Eq, Expr.col "R" "a", Expr.Const (v_int 1)),
        Predicate.True )
  in
  let f = Predicate.compile ab_schema p in
  Alcotest.(check bool) "unknown or true" true (f (Tuple.make [ Value.Null; v_int 0 ]))

let test_predicate_equi_atoms () =
  let p =
    Predicate.And
      ( Predicate.eq_cols (Attr.make "R" "a") (Attr.make "S" "x"),
        Predicate.eq_cols (Attr.make "R" "b") (Attr.make "S" "y") )
  in
  Alcotest.(check (option int)) "two atoms" (Some 2)
    (Option.map List.length (Predicate.as_equi_atoms p));
  let q = Predicate.Is_null (Expr.col "R" "a") in
  Alcotest.(check (option int)) "not equi" None
    (Option.map List.length (Predicate.as_equi_atoms q))

let test_predicate_rename () =
  let p = Predicate.eq_cols (Attr.make "R" "a") (Attr.make "S" "x") in
  let renamed = Predicate.rename_rel p ~from:"S" ~into:"S2" in
  Alcotest.(check string) "renamed" "R.a = S2.x" (Predicate.to_sql renamed)

(* --- Expr --- *)

let test_expr_eval () =
  let e = Expr.Add (Expr.col "R" "a", Expr.Const (v_int 10)) in
  Alcotest.(check value) "a+10" (v_int 11)
    (Expr.eval ab_schema e (Tuple.make [ v_int 1; v_int 0 ]));
  let c = Expr.Coalesce (Expr.col "R" "a", Expr.Const (v_int 0)) in
  Alcotest.(check value) "coalesce null" (v_int 0)
    (Expr.eval ab_schema c (Tuple.make [ Value.Null; v_int 5 ]))

let test_expr_columns () =
  let e = Expr.Concat (Expr.col "R" "a", Expr.col "S" "x") in
  Alcotest.(check (list attr)) "columns"
    [ Attr.make "R" "a"; Attr.make "S" "x" ]
    (Expr.columns e)

(* --- Algebra --- *)

let left =
  mk_rel "L" [ "id"; "v" ]
    [
      Tuple.make [ v_int 1; v_str "a" ];
      Tuple.make [ v_int 2; v_str "b" ];
      Tuple.make [ v_int 3; v_str "c" ];
      Tuple.make [ Value.Null; v_str "d" ];
    ]

let right =
  mk_rel "R" [ "id"; "w" ]
    [
      Tuple.make [ v_int 1; v_str "x" ];
      Tuple.make [ v_int 1; v_str "y" ];
      Tuple.make [ v_int 4; v_str "z" ];
      Tuple.make [ Value.Null; v_str "q" ];
    ]

let join_pred = Predicate.eq_cols (Attr.make "L" "id") (Attr.make "R" "id")

let test_join () =
  let j = Algebra.join join_pred left right in
  Alcotest.(check int) "two matches" 2 (Relation.cardinality j)

let test_join_null_keys_never_match () =
  (* Strong predicates: the null ids on both sides must not pair up. *)
  let j = Algebra.join join_pred left right in
  Relation.iter
    (fun t -> Alcotest.(check bool) "no null key" false (Value.is_null t.(0)))
    j

let test_left_outer_join () =
  let j = Algebra.left_outer_join join_pred left right in
  (* 2 matches + 3 dangling left (ids 2, 3, null). *)
  Alcotest.(check int) "loj size" 5 (Relation.cardinality j)

let test_full_outer_join () =
  let j = Algebra.full_outer_join join_pred left right in
  (* 2 matches + 3 dangling left + 2 dangling right (id 4, null). *)
  Alcotest.(check int) "foj size" 7 (Relation.cardinality j)

let test_join_nested_loop_fallback () =
  (* Non-equi predicate exercises the nested-loop path. *)
  let p = Predicate.Cmp (Predicate.Lt, Expr.col "L" "id", Expr.col "R" "id") in
  let j = Algebra.join p left right in
  (* pairs with l.id < r.id among non-null: (1,4) (2,4) (3,4). *)
  Alcotest.(check int) "lt join" 3 (Relation.cardinality j)

let test_select_project () =
  let p = Predicate.Cmp (Predicate.Ge, Expr.col "L" "id", Expr.Const (v_int 2)) in
  Alcotest.(check int) "select" 2 (Relation.cardinality (Algebra.select p left));
  let proj = Algebra.project [ Attr.make "L" "v" ] left in
  Alcotest.(check int) "project arity" 1 (Schema.arity (Relation.schema proj));
  Alcotest.(check int) "project size" 4 (Relation.cardinality proj)

let test_product () =
  let p = Algebra.product left right in
  Alcotest.(check int) "product" 16 (Relation.cardinality p)

let test_union_difference () =
  let a = mk_rel "A" [ "x" ] [ Tuple.make [ v_int 1 ]; Tuple.make [ v_int 2 ] ] in
  let b =
    Relation.create "B" (Schema.make "A" [ "x" ])
      [ Tuple.make [ v_int 2 ]; Tuple.make [ v_int 3 ] ]
  in
  Alcotest.(check int) "union" 3 (Relation.cardinality (Algebra.union a b));
  Alcotest.(check int) "difference" 1 (Relation.cardinality (Algebra.difference a b))

let test_outer_union () =
  let a = mk_rel "A" [ "x" ] [ Tuple.make [ v_int 1 ] ] in
  let b = mk_rel "B" [ "y" ] [ Tuple.make [ v_int 2 ] ] in
  let ou = Algebra.outer_union a b in
  Alcotest.(check int) "arity 2" 2 (Schema.arity (Relation.schema ou));
  Alcotest.(check int) "two rows" 2 (Relation.cardinality ou);
  Relation.iter
    (fun t ->
      Alcotest.(check bool) "one null each" true
        (Value.is_null t.(0) <> Value.is_null t.(1)))
    ou

let test_pad () =
  let a = mk_rel "A" [ "x" ] [ Tuple.make [ v_int 1 ] ] in
  let target = Schema.of_attrs [ Attr.make "B" "y"; Attr.make "A" "x" ] in
  let padded = Algebra.pad a target in
  Alcotest.(check tuple) "pad reorders"
    (Tuple.make [ Value.Null; v_int 1 ])
    (List.hd (Relation.tuples padded))

(* --- Integrity --- *)

let parent = mk_rel "P" [ "id" ] [ Tuple.make [ v_int 1 ]; Tuple.make [ v_int 2 ] ]

let child =
  mk_rel "C" [ "id"; "pid" ]
    [
      Tuple.make [ v_int 10; v_int 1 ];
      Tuple.make [ v_int 11; Value.Null ];
      Tuple.make [ v_int 12; v_int 9 ];
    ]

let db = Database.of_relations [ parent; child ]

let test_fk_violation () =
  let fk =
    Integrity.Foreign_key
      { rel = "C"; cols = [ "pid" ]; ref_rel = "P"; ref_cols = [ "id" ] }
  in
  let violations = Integrity.check ~lookup:(Database.find db) fk in
  (* Null FK passes; 9 dangles. *)
  Alcotest.(check int) "one dangling" 1 (List.length violations)

let test_pk_violation () =
  let dup =
    mk_rel "D" [ "k"; "x" ]
      [ Tuple.make [ v_int 1; v_int 1 ]; Tuple.make [ v_int 1; v_int 2 ] ]
  in
  let db = Database.of_relations [ dup ] in
  let pk = Integrity.Primary_key ("D", [ "k" ]) in
  Alcotest.(check int) "dup key" 1
    (List.length (Integrity.check ~lookup:(Database.find db) pk))

let test_not_null_violation () =
  let nn = Integrity.Not_null ("C", "pid") in
  Alcotest.(check int) "one null" 1
    (List.length (Integrity.check ~lookup:(Database.find db) nn))

let test_unknown_relation_reported () =
  let pk = Integrity.Primary_key ("Z", [ "k" ]) in
  Alcotest.(check int) "unknown rel" 1
    (List.length (Integrity.check ~lookup:(Database.find db) pk))

let test_fk_join_predicate () =
  let fk =
    Integrity.Foreign_key
      { rel = "C"; cols = [ "pid" ]; ref_rel = "P"; ref_cols = [ "id" ] }
  in
  match Integrity.join_predicate fk with
  | Some p -> Alcotest.(check string) "pred" "C.pid = P.id" (Predicate.to_sql p)
  | None -> Alcotest.fail "expected a predicate"

(* --- Database --- *)

let test_database_ops () =
  Alcotest.(check (list string)) "names" [ "P"; "C" ] (Database.relation_names db);
  Alcotest.(check bool) "mem" true (Database.mem db "P");
  Alcotest.(check bool) "not mem" false (Database.mem db "Z");
  Alcotest.(check int) "cells" ((2 * 1) + (3 * 2)) (Database.cell_count db)

let test_database_duplicate_rejected () =
  Alcotest.check_raises "dup" (Invalid_argument "Database.add: duplicate relation P")
    (fun () -> ignore (Database.add db parent))

let test_database_find_value () =
  let occs = Database.find_value db (v_int 1) in
  (* id 1 in P.id and C.pid. *)
  Alcotest.(check int) "two occurrences" 2 (List.length occs);
  Alcotest.(check bool) "an equal float finds the same cells" true
    (Database.find_value db (Value.Float 1.0) = occs);
  Alcotest.(check int) "a value no relation holds" 0
    (List.length (Database.find_value db (v_str "find_value: nowhere")))

(* --- the consolidated builder and the columnar twin --- *)

let test_create_builder () =
  let schema = Schema.make "A" [ "x"; "y" ] in
  let dup =
    [
      Tuple.make [ v_int 1; v_int 2 ];
      Tuple.make [ v_int 3; Value.Null ];
      Tuple.make [ v_int 1; v_int 2 ];
    ]
  in
  let r = Relation.create "A" schema dup in
  (* Dedup keeps the first occurrence. *)
  Alcotest.(check int) "deduped" 2 (Relation.cardinality r);
  Alcotest.(check int) "dedup skippable on known sets" 2
    (Relation.cardinality
       (Relation.create ~dedup:false "A" schema (Relation.tuples r)));
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation.create A: tuple arity 1, schema arity 2")
    (fun () -> ignore (Relation.create "A" schema [ Tuple.make [ v_int 1 ] ]));
  Alcotest.check_raises "all-null rejected"
    (Invalid_argument "Relation.create A: all-null tuple") (fun () ->
      ignore
        (Relation.create "A" schema [ Tuple.make [ Value.Null; Value.Null ] ]));
  Alcotest.(check int) "all-null allowed when asked" 1
    (Relation.cardinality
       (Relation.create ~allow_all_null:true "A" schema
          [ Tuple.make [ Value.Null; Value.Null ] ]))

let test_of_columns_builder () =
  let schema = Schema.make "A" [ "x"; "y" ] in
  let boxed =
    Relation.create "A" schema
      [
        Tuple.make [ v_int 1; v_int 2 ];
        Tuple.make [ v_int 3; Value.Null ];
      ]
  in
  let r = Relation.of_columns "A" schema (Relation.columns boxed) in
  Alcotest.(check bool) "round-trips through columns" true
    (Relation.equal_contents boxed r);
  Alcotest.check_raises "column count"
    (Invalid_argument "Relation.of_columns A: 1 columns, schema arity 2")
    (fun () -> ignore (Relation.of_columns "A" schema [| [| 0 |] |]));
  Alcotest.check_raises "ragged columns"
    (Invalid_argument "Relation.of_columns A: column 1 length 0, expected 1")
    (fun () -> ignore (Relation.of_columns "A" schema [| [| 0 |]; [||] |]));
  Alcotest.check_raises "all-null rejected"
    (Invalid_argument "Relation.of_columns A: all-null tuple") (fun () ->
      ignore (Relation.of_columns "A" schema [| [| 0 |]; [| 0 |] |]));
  Alcotest.(check int) "all-null allowed when asked" 1
    (Relation.cardinality
       (Relation.of_columns ~allow_all_null:true "A" schema [| [| 0 |]; [| 0 |] |]));
  (* No column counts the rows of a zero-column relation: [nrows] does,
     and a set keeps one empty tuple of many. *)
  let unit = Relation.create "U" (Schema.of_attrs []) [ [||] ] in
  let rebuilt =
    Relation.of_columns ~nrows:(Relation.cardinality unit) "U"
      (Relation.schema unit) (Relation.columns unit)
  in
  Alcotest.(check int) "zero columns keep their row" 1 (Relation.cardinality rebuilt);
  Alcotest.(check bool) "and round-trip" true (Relation.equal_contents unit rebuilt);
  Alcotest.(check int) "zero columns dedup to one row" 1
    (Relation.cardinality
       (Relation.of_columns ~nrows:3 "U" (Schema.of_attrs []) [||]));
  Alcotest.(check int) "without dedup every row stays" 3
    (Relation.cardinality
       (Relation.of_columns ~dedup:false ~nrows:3 "U" (Schema.of_attrs []) [||]));
  Alcotest.check_raises "row count checked against the columns"
    (Invalid_argument "Relation.of_columns A: column 0 length 2, expected 5")
    (fun () ->
      ignore (Relation.of_columns ~nrows:5 "A" schema (Relation.columns boxed)))

(* --- relation storage: shared memos, column-only base relations --- *)

let interned () = Obs.Counter.value Obs.Names.relation_rows_interned

let with_obs f =
  let was_enabled = Obs.enabled () in
  Obs.enable ();
  Fun.protect ~finally:(fun () -> if not was_enabled then Obs.disable ()) f

let is_columnar r =
  match Relation.view r with Relation.Columns _ -> true | Relation.Boxed _ -> false

let test_copies_share_columns () =
  with_obs @@ fun () ->
  let r =
    Relation.create "R" (Schema.make "R" [ "a"; "b" ])
      [ Tuple.make [ v_int 1; v_str "x" ]; Tuple.make [ v_int 2; v_str "y" ] ]
  in
  let named = Relation.with_name "R2" r in
  let renamed = Relation.rename_rel r ~from:"R" ~into:"R2" in
  let before = interned () in
  let cols = Relation.columns renamed in
  Alcotest.(check int) "the first use interns the rows" (before + 2) (interned ());
  Alcotest.(check bool) "with_name shares the columns" true
    (Relation.columns named == cols);
  Alcotest.(check bool) "the source shares them" true (Relation.columns r == cols);
  Alcotest.(check int) "once for all copies" (before + 2) (interned ());
  let stored = Relation.as_columns r in
  Alcotest.(check bool) "as_columns keeps the columns" true
    (Relation.columns stored == cols);
  Alcotest.(check bool) "and drops the boxed view" true (is_columnar stored);
  Alcotest.(check bool) "same rows" true (Relation.equal_contents r stored)

let test_database_stores_columns () =
  with_obs @@ fun () ->
  let schema = Schema.make "R" [ "a"; "b" ] in
  let old = [ Tuple.make [ v_int 1; v_int 10 ]; Tuple.make [ v_int 2; v_int 20 ] ] in
  let db = Database.of_relations [ Relation.create "R" schema old ] in
  Alcotest.(check bool) "add stores columns" true (is_columnar (Database.get db "R"));
  let before = interned () in
  (* A fresh row, a row already stored, a batch duplicate, and a row
     equal to a stored one only class-wise (Float 2.0 = Int 2). *)
  let fresh = Tuple.make [ v_int 3; v_int 30 ] in
  let db' =
    Database.insert_tuples db "R"
      [
        fresh;
        Tuple.make [ v_int 1; v_int 10 ];
        fresh;
        Tuple.make [ Value.Float 2.0; v_int 20 ];
      ]
  in
  let r = Database.get db' "R" in
  Alcotest.(check bool) "insert stores columns" true (is_columnar r);
  Alcotest.(check int) "only the batch is interned" (before + 4) (interned ());
  Alcotest.(check bool) "old tuples @ fresh, in order" true
    (List.equal Tuple.equal (old @ [ fresh ]) (Relation.tuples r));
  Alcotest.(check bool) "the recorded step holds the fresh row" true
    (match Database.history db' with
    | { Delta.kind = Delta.Insert { tuples = [ t ]; _ }; _ } :: _ -> t == fresh
    | _ -> false);
  let replaced = Database.replace db' (Relation.create "R" schema old) in
  Alcotest.(check bool) "replace stores columns" true
    (is_columnar (Database.get replaced "R"));
  let unit = Relation.create "U" (Schema.of_attrs []) [] in
  let db0 = Database.of_relations [ unit ] in
  let db1 = Database.insert_tuples db0 "U" [ [||]; [||] ] in
  Alcotest.(check int) "a zero-column relation gains its one row" 1
    (Relation.cardinality (Database.get db1 "U"));
  Alcotest.(check int) "and no second"
    (Database.version db1)
    (Database.version (Database.insert_tuples db1 "U" [ [||] ]))

let test_equal_contents_order_insensitive () =
  let schema = Schema.make "A" [ "x" ] in
  let r1 = Relation.create "A" schema [ Tuple.make [ v_int 1 ]; Tuple.make [ v_int 2 ] ] in
  let r2 = Relation.create "A" schema [ Tuple.make [ v_int 2 ]; Tuple.make [ v_int 1 ] ] in
  let r3 = Relation.create "A" schema [ Tuple.make [ v_int 1 ] ] in
  Alcotest.(check bool) "order irrelevant" true (Relation.equal_contents r1 r2);
  Alcotest.(check bool) "cardinality matters" false (Relation.equal_contents r1 r3);
  Alcotest.(check bool) "subset is not equality" false (Relation.equal_contents r3 r1)

(* --- changelog: insert_tuples, replace lineage, the bounded window --- *)

let delta_db =
  Database.of_relations
    [
      Relation.create "R"
        (Schema.make "R" [ "a"; "b" ])
        [ Tuple.make [ v_int 1; v_int 10 ]; Tuple.make [ v_int 2; v_int 20 ] ];
    ]

let test_insert_tuples () =
  let t3 = Tuple.make [ v_int 3; v_int 30 ] in
  let db1 = Database.insert_tuples delta_db "R" [ t3 ] in
  Alcotest.(check bool) "version bumped" true
    (Database.version db1 > Database.version delta_db);
  Alcotest.(check int) "tuple appended" 3 (Relation.cardinality (Database.get db1 "R"));
  (* The recorded step carries exactly the fresh tuples. *)
  (match Database.history db1 with
  | { Delta.kind = Delta.Insert { relation = "R"; tuples = [ t ] }; _ } :: _ ->
      Alcotest.(check bool) "recorded the fresh tuple" true (Tuple.equal t t3)
  | _ -> Alcotest.fail "expected an Insert step for R");
  (* Duplicates (vs existing and within the batch) are dropped; an
     all-duplicate batch is a version no-op. *)
  let db2 = Database.insert_tuples db1 "R" [ t3; Tuple.make [ v_int 1; v_int 10 ] ] in
  Alcotest.(check int) "no-op keeps version" (Database.version db1) (Database.version db2);
  let db3 = Database.insert_tuples db1 "R" [ t3; Tuple.make [ v_int 4; v_int 40 ]; Tuple.make [ v_int 4; v_int 40 ] ] in
  Alcotest.(check int) "batch deduped" 4 (Relation.cardinality (Database.get db3 "R"));
  Alcotest.check_raises "unknown relation"
    (Invalid_argument "Database.insert_tuples: unknown relation S") (fun () ->
      ignore (Database.insert_tuples delta_db "S" [ t3 ]))

let test_replace_delta_classification () =
  let r = Database.get delta_db "R" in
  (* add and add_constraint record their own kinds. *)
  let s = Relation.create "S" (Schema.make "S" [ "x" ]) [] in
  (match Database.history (Database.add delta_db s) with
  | { Delta.kind = Delta.New_relation "S"; _ } :: _ -> ()
  | _ -> Alcotest.fail "add should record New_relation");
  (match
     Database.history
       (Database.add_constraint delta_db
          (Integrity.Foreign_key
             { rel = "R"; cols = [ "a" ]; ref_rel = "R"; ref_cols = [ "a" ] }))
   with
  | { Delta.kind = Delta.Constraints_only; _ } :: _ -> ()
  | _ -> Alcotest.fail "add_constraint should record Constraints_only");
  (* replace records no step: it starts a new lineage, whether the new
     instance is a superset, a subset or a different scheme. *)
  let grown =
    Relation.create "R" (Relation.schema r)
      (Relation.tuples r @ [ Tuple.make [ v_int 5; v_int 50 ] ])
  in
  let shrunk =
    Relation.create "R" (Relation.schema r) [ Tuple.make [ v_int 1; v_int 10 ] ]
  in
  let reshaped = Relation.create "R" (Schema.make "R" [ "a"; "c" ]) (Relation.tuples r) in
  List.iter
    (fun (label, r') ->
      let db' = Database.replace delta_db r' in
      Alcotest.(check bool) (label ^ " replace bumps the version") true
        (Database.version db' > Database.version delta_db);
      Alcotest.(check int) (label ^ " replace leaves an empty history") 0
        (List.length (Database.history db')))
    [ ("superset", grown); ("shrinking", shrunk); ("schema-changing", reshaped) ]

(* Grow [db] by [n] single-tuple inserts, ids from [base]. *)
let grow db n base =
  List.fold_left
    (fun db i ->
      Database.insert_tuples db "R" [ Tuple.make [ v_int (base + i); v_int i ] ])
    db
    (List.init n Fun.id)

let test_history_bounded () =
  let db = grow delta_db (Database.history_window + 8) 100 in
  let history = Database.history db in
  Alcotest.(check int) "window bounded" Database.history_window
    (List.length history);
  (* Newest first and contiguous: the newest step ends at the current
     version, and each step starts where the next-older one ends. *)
  Alcotest.(check int) "newest step ends at the current version"
    (Database.version db) (List.hd history).Delta.to_version;
  let rec contiguous = function
    | newer :: (older :: _ as rest) ->
        newer.Delta.from_version = older.Delta.to_version && contiguous rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "history is contiguous" true (contiguous history);
  (* Beyond the window the ancestor is no longer recorded. *)
  Alcotest.(check bool) "pre-window ancestor dropped" false
    (List.exists
       (fun step -> step.Delta.from_version = Database.version delta_db)
       history)

(* Dropping a step off the bounded window must bump the eviction counter
   — the signal that promotion will degrade to from-scratch recompute. *)
let test_history_eviction_counted () =
  let was_enabled = Obs.enabled () in
  Obs.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Obs.disable ())
    (fun () ->
      let evicted () = Obs.Counter.value Obs.Names.delta_history_evicted in
      (* [delta_db] already holds one step; fill the window exactly. *)
      let db = grow delta_db (Database.history_window - 1) 700 in
      Alcotest.(check int) "window full" Database.history_window
        (List.length (Database.history db));
      let before = evicted () in
      let db' =
        Database.insert_tuples db "R" [ Tuple.make [ v_int 799; v_int 99 ] ]
      in
      Alcotest.(check int) "overflow recorded" (before + 1) (evicted ());
      Alcotest.(check int) "window still bounded" Database.history_window
        (List.length (Database.history db')))

(* --- CSV --- *)

let test_csv_roundtrip () =
  let text = "id,name,age\n1,Ann,6\n2,\"Bo,b\",\n" in
  let r = Csv_io.relation_of_string ~name:"Kids" text in
  Alcotest.(check int) "two rows" 2 (Relation.cardinality r);
  let s = Relation.schema r in
  let bob =
    Relation.tuples r
    |> List.find (fun t ->
           Value.equal t.(Schema.index s (Attr.make "Kids" "name")) (v_str "Bo,b"))
  in
  Alcotest.(check bool) "null age" true
    (Value.is_null bob.(Schema.index s (Attr.make "Kids" "age")));
  let again = Csv_io.relation_of_string ~name:"Kids" (Csv_io.relation_to_string r) in
  Alcotest.(check bool) "round trip" true (Relation.equal_contents r again)

let test_csv_quoted_quote () =
  let rows = Csv_io.parse_string "a\n\"he said \"\"hi\"\"\"\n" in
  Alcotest.(check int) "rows" 2 (List.length rows);
  Alcotest.(check string) "unescaped" "he said \"hi\"" (List.hd (List.nth rows 1))

let test_csv_database_of_dir () =
  (* The sample library shipped under examples/. *)
  let dir = "../examples/data/library" in
  if Sys.file_exists dir then begin
    let db = Csv_io.database_of_dir dir in
    Alcotest.(check (list string)) "relations from files" [ "authors"; "books"; "loans" ]
      (Database.relation_names db);
    Alcotest.(check int) "books rows" 4
      (Relation.cardinality (Database.get db "books"))
  end
  else Printf.printf "(skipping: %s not found from test cwd)\n" dir

(* --- Render --- *)

let test_render_contains_values () =
  let s = Render.relation r_small in
  Alcotest.(check bool) "has name" true (contains s "R");
  Alcotest.(check bool) "has x" true (contains s "x");
  Alcotest.(check bool) "has y" true (contains s "y")

let test_render_annotated () =
  let s =
    Render.annotated ~annot_header:"tag"
      [ ("T1", Tuple.make [ v_int 1; v_str "x" ]) ]
      (Relation.schema r_small)
  in
  Alcotest.(check bool) "tag col" true (contains s "tag");
  Alcotest.(check bool) "annot" true (contains s "T1")

(* The list-based renderer the single-pass writer replaced, kept as the
   oracle whose output [Render] must reproduce byte for byte (the server's
   digests and persisted store digests hash this text). *)
let oracle_table ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let cell row i = match List.nth_opt row i with Some c -> c | None -> "" in
  let widths =
    List.init ncols (fun i ->
        List.fold_left (fun m row -> max m (String.length (cell row i))) 0 all)
  in
  let line row =
    List.mapi
      (fun i w ->
        let c = cell row i in
        c ^ String.make (w - String.length c) ' ')
      widths
    |> String.concat " | "
    |> fun s -> "| " ^ s ^ " |"
  in
  let sep =
    List.map (fun w -> String.make (w + 2) '-') widths
    |> String.concat "+"
    |> fun s -> "+" ^ s ^ "+"
  in
  String.concat "\n" (sep :: line header :: sep :: List.map line rows)
  ^ "\n" ^ sep

let oracle_headers ?qualified schema =
  let multi = List.length (Schema.rels schema) > 1 in
  let qualified = Option.value qualified ~default:multi in
  Array.to_list (Schema.attrs schema)
  |> List.map (fun a -> if qualified then Attr.to_string a else a.Attr.name)

let oracle_cells t = Array.to_list (Array.map Value.to_string t)

let oracle_relation ?qualified r =
  Relation.name r ^ "\n"
  ^ oracle_table
      ~header:(oracle_headers ?qualified (Relation.schema r))
      (List.map oracle_cells (Relation.tuples r))

let oracle_annotated ?qualified ~annot_header rows schema =
  oracle_table
    ~header:(annot_header :: oracle_headers ?qualified schema)
    (List.map (fun (annot, t) -> annot :: oracle_cells t) rows)

(* Cells dense in what a byte-width writer can get wrong: empty cells,
   multibyte UTF-8 (widths are bytes, not characters), the frame's own
   characters and newlines inside a cell, and a header wider than any
   cell. *)
let render_strings =
  [ ""; "a"; "xyz"; "héllo"; "日本語"; "|"; "+"; "\n"; "a|b+c\nd"; "a-very-wide-header" ]

let render_value_gen =
  QCheck2.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) (oneofl [ 0; 1; -7; 12345; max_int; min_int ]);
        map
          (fun f -> Value.Float f)
          (oneofl
             [ 1.0; -0.; 0.; 2.5; 1e15; 1e300; Float.nan; Float.infinity; Float.neg_infinity ]);
        map (fun s -> Value.String s) (oneofl render_strings);
        map (fun b -> Value.Bool b) bool;
      ])

let render_cell_gen = QCheck2.Gen.oneofl render_strings

(* A schema over one or two nodes (two makes [relation] qualify headers
   by default), with 0–4 columns. *)
let render_schema_gen =
  QCheck2.Gen.(
    let* arity = int_range 0 4 in
    let* two_nodes = bool in
    let* names = list_repeat arity (oneofl [ "a"; "id"; "név"; "x|y" ]) in
    return
      (Schema.of_attrs
         (List.mapi
            (fun i n ->
              let rel = if two_nodes && i mod 2 = 1 then "S" else "R" in
              Attr.make rel (Printf.sprintf "%s%d" n i))
            names)))

let render_relation_gen =
  QCheck2.Gen.(
    let* schema = render_schema_gen in
    let* rows =
      list_size (int_range 0 6)
        (array_repeat (Schema.arity schema) render_value_gen)
    in
    return (Relation.create ~allow_all_null:true "Rel" schema rows))

let check_relation_matches r =
  List.for_all
    (fun qualified ->
      String.equal
        (Render.relation ?qualified r)
        (oracle_relation ?qualified r))
    [ None; Some true; Some false ]
  && String.equal (Render.digest r)
       (Digest.to_hex (Digest.string (oracle_relation r)))

let prop_table_matches_oracle =
  QCheck2.Test.make ~name:"table = list oracle (ragged, empty, multibyte)"
    ~count:500
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 4) render_cell_gen)
        (list_size (int_range 0 6) (list_size (int_range 0 6) render_cell_gen)))
    (fun (header, rows) ->
      String.equal (Render.table ~header rows) (oracle_table ~header rows))

let prop_relation_matches_oracle =
  QCheck2.Test.make ~name:"relation/digest = list oracle (qualified or not)"
    ~count:500 render_relation_gen check_relation_matches

let prop_annotated_matches_oracle =
  QCheck2.Test.make ~name:"annotated = list oracle" ~count:500
    QCheck2.Gen.(
      triple render_schema_gen render_cell_gen
        (list_size (int_range 0 5)
           (pair render_cell_gen
              (list_size (int_range 0 5) render_value_gen))))
    (fun (schema, annot_header, rows) ->
      let rows = List.map (fun (a, vs) -> (a, Array.of_list vs)) rows in
      List.for_all
        (fun qualified ->
          String.equal
            (Render.annotated ?qualified ~annot_header rows schema)
            (oracle_annotated ?qualified ~annot_header rows schema))
        [ None; Some true; Some false ])

(* The edge cases named one by one, so each is covered whatever the
   generator draws. *)
let test_render_edge_cases () =
  let same label header rows =
    Alcotest.(check string) label (oracle_table ~header rows)
      (Render.table ~header rows)
  in
  same "zero rows" [ "a"; "b" ] [];
  same "zero columns" [] [];
  same "zero columns, empty rows" [] [ []; [] ];
  same "ragged rows shorter than the header" [ "a"; "b"; "c" ] [ [ "1" ]; []; [ "1"; "2" ] ];
  same "row longer than the header" [ "a" ] [ [ "1"; "2"; "3" ] ];
  same "header wider than every cell" [ "a-very-wide-header" ] [ [ "x" ]; [ "" ] ];
  same "multibyte cells" [ "név" ] [ [ "日本語" ]; [ "héllo" ] ];
  same "frame characters and newlines" [ "|"; "+" ] [ [ "\n"; "a|b+c\nd" ] ];
  let r =
    Relation.create ~allow_all_null:true "V" (Schema.make "V" [ "i"; "f" ])
      Value.
        [
          [| Int 1; Float 1.0 |];
          [| Null; Float Float.nan |];
          [| Float Float.infinity; Float Float.neg_infinity |];
          [| Float (-0.); String "1" |];
        ]
  in
  Alcotest.(check string) "null, nan, ±inf, -0., Int 1 beside Float 1.0"
    (oracle_relation r) (Render.relation r);
  Alcotest.(check bool) "every qualification and the digest" true
    (check_relation_matches r);
  List.iter
    (fun rows ->
      let r = Relation.create "E" (Schema.of_attrs []) rows in
      Alcotest.(check string) "zero-column relation" (oracle_relation r)
        (Render.relation r))
    [ []; [ [||] ] ]

(* A relation held as id columns only, twin of a boxed one. *)
let columnar_twin r =
  Relation.of_columns ~dedup:false ~allow_all_null:true
    ~nrows:(Relation.cardinality r) (Relation.name r) (Relation.schema r)
    (Value_pool.intern_rows (Relation.tuples_array r)
       ~arity:(Schema.arity (Relation.schema r)))

(* The writer reads id columns in place: the text is the oracle's and the
   boxed twin's, and rendering leaves the relation unboxed. *)
let prop_columnar_matches_oracle =
  QCheck2.Test.make ~name:"columnar relation/digest = list oracle = boxed twin"
    ~count:500 render_relation_gen (fun boxed ->
      let r = columnar_twin boxed in
      List.for_all
        (fun qualified ->
          let text = Render.relation ?qualified r in
          String.equal text (oracle_relation ?qualified boxed)
          && String.equal text (Render.relation ?qualified boxed))
        [ None; Some true; Some false ]
      && String.equal (Render.digest r)
           (Digest.to_hex (Digest.string (oracle_relation boxed)))
      && String.equal (Render.digest r) (Render.digest boxed)
      && is_columnar r)

(* Ints across every digit-count boundary and strings across the
   writer's word-copy lengths, boxed and columnar, against the oracle. *)
let prop_cell_widths_match_oracle =
  QCheck2.Test.make ~name:"ints and strings of every width = list oracle"
    ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 30)
        (pair
           (oneof
              [
                int_range (-20000) 20000;
                int;
                oneofl [ 9; 10; 99; 100; 999; 1000; 9999; 10000; -9; -10; -9999; -10000 ];
              ])
           (string_size ~gen:printable (int_range 0 40))))
    (fun rows ->
      let r =
        Relation.create "N" (Schema.make "N" [ "i"; "s" ])
          (List.map (fun (i, s) -> [| v_int i; v_str s |]) rows)
      in
      check_relation_matches r
      && String.equal (Render.relation (columnar_twin r)) (oracle_relation r))

(* [rows] rows of an int key and a string whose length varies with the
   key, so the widths differ from one relation to the next. *)
let keyed_relation name rows =
  Relation.create name (Schema.make name [ "k"; "s" ])
    (List.init rows (fun i ->
         [| v_int ((i * 7919) - 3000); v_str (String.make (1 + (i mod 37)) 'x') |]))

(* Each domain keeps its own digest buffer: two domains digesting
   different relations at once (one of them growing its buffer as it
   alternates sizes) agree with the sequential digests. *)
let test_digest_domains_isolated () =
  let a1 = keyed_relation "A" 40 and a2 = keyed_relation "A" 3000 in
  let b = keyed_relation "B" 1500 in
  let want r = Digest.to_hex (Digest.string (oracle_relation r)) in
  let wa1 = want a1 and wa2 = want a2 and wb = want b in
  let run f =
    Domain.spawn (fun () ->
        let ok = ref true in
        for i = 1 to 200 do
          if not (f i) then ok := false
        done;
        !ok)
  in
  let da =
    run (fun i ->
        if i mod 2 = 0 then Render.digest a1 = wa1 else Render.digest a2 = wa2)
  in
  let db = run (fun _ -> Render.digest b = wb) in
  Alcotest.(check bool) "domain A digests match" true (Domain.join da);
  Alcotest.(check bool) "domain B digests match" true (Domain.join db)

(* Texts above the retention cap render into a transient buffer: the
   digest is right and the buffer a domain keeps stays within the cap.
   Run on a fresh domain, whose buffer starts empty. *)
let test_digest_above_cap () =
  let wide rows =
    Relation.create "W" (Schema.make "W" [ "k"; "s" ])
      (List.init rows (fun i -> [| v_int i; v_str (String.make 100 'w') |]))
  in
  let small = wide 10 and mid = wide 5000 and near = wide 9000 and big = wide 11000 in
  Alcotest.(check bool) "near-cap text fits" true
    (String.length (Render.relation near) <= Render.digest_buffer_cap);
  Alcotest.(check bool) "twice the mid text is above the cap" true
    (2 * String.length (Render.relation mid) > Render.digest_buffer_cap);
  Alcotest.(check bool) "big text is above the cap" true
    (String.length (Render.relation big) > Render.digest_buffer_cap);
  let got =
    Domain.join
      (Domain.spawn (fun () ->
           let fresh = Render.digest_buffer_bytes () in
           ignore (Render.digest small);
           let after_small = Render.digest_buffer_bytes () in
           let d_big = Render.digest big in
           let after_big = Render.digest_buffer_bytes () in
           (* Growing from [mid] by doubling would pass the cap. *)
           ignore (Render.digest mid);
           let d_near = Render.digest near in
           (fresh, after_small, d_big, after_big, d_near, Render.digest_buffer_bytes ())))
  in
  let fresh, after_small, d_big, after_big, d_near, after_near = got in
  Alcotest.(check int) "a fresh domain keeps no buffer" 0 fresh;
  Alcotest.(check bool) "a small digest keeps a buffer" true (after_small > 0);
  Alcotest.(check string) "big digest = oracle"
    (Digest.to_hex (Digest.string (oracle_relation big)))
    d_big;
  Alcotest.(check int) "a text above the cap is not kept" after_small after_big;
  Alcotest.(check string) "near-cap digest = oracle"
    (Digest.to_hex (Digest.string (oracle_relation near)))
    d_near;
  Alcotest.(check bool) "the kept buffer stays within the cap" true
    (after_near <= Render.digest_buffer_cap && after_near > 0)

(* The D(G) of the served chain-edit walk: a 2000-row 3-chain joined R1 to
   R3, as bench/main.exe's workspace arm builds it. *)
let chain_dg () =
  let inst =
    Synth.Gen_graph.chain (Random.State.make [| 59 |]) ~n:3 ~rows:2000
      ~null_prob:0.25 ~orphan_prob:0.2 ()
  in
  let ctx =
    Clio.Eval_ctx.create ~jobs:1 ~kb:inst.Synth.Gen_graph.kb inst.Synth.Gen_graph.db
  in
  let m0 =
    Clio.Mapping.make
      ~graph:(Querygraph.Qgraph.singleton ~alias:"R1" ~base:"R1")
      ~target:"T" ~target_cols:[ "c" ]
      ~correspondences:[ Clio.Correspondence.identity "c" (Attr.make "R1" "id") ]
      ()
  in
  match Clio.Op_walk.data_walk ctx m0 ~start:"R1" ~goal:"R3" ~max_len:3 () with
  | alt :: _ ->
      Fulldisj.Full_disjunction.to_relation
        (Clio.Mapping_eval.data_associations ctx alt.Clio.Op_walk.mapping)
  | [] -> Alcotest.fail "no R1-R3 walk"

(* A warm digest allocates nothing proportional to the text: under 1 % of
   its bytes, counted in words.  Allocation counts do not depend on the
   machine, so this gates what a wall-clock bound could not. *)
let test_digest_allocation () =
  let dg = chain_dg () in
  let text = String.length (Render.relation dg) in
  ignore (Render.digest dg);
  (* Words allocated: [Gc.minor_words] counts the minor heap exactly (the
     minor counts of [Gc.quick_stat] and [Gc.counters] lag until a minor
     collection), and [quick_stat]'s major words count direct major
     allocations, where a fresh text of this size would go. *)
  let allocated () =
    let major = (Gc.quick_stat ()).Gc.major_words in
    Gc.minor_words () +. major
  in
  let runs = 10 in
  let before = allocated () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (Render.digest dg))
  done;
  let per_digest = (allocated () -. before) /. float_of_int runs in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words a digest of %d bytes (< 1%%)" per_digest text)
    true
    (per_digest < 0.01 *. float_of_int text)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "relational"
    [
      ( "value",
        [
          tc "equal" `Quick test_value_equal;
          tc "numeric compare" `Quick test_value_compare_numeric;
          tc "sql_eq null" `Quick test_value_sql_eq_null;
          tc "arith" `Quick test_value_arith;
          tc "concat" `Quick test_value_concat;
          tc "csv cell" `Quick test_value_csv_cell;
          tc "to_sql" `Quick test_value_to_sql;
          QCheck_alcotest.to_alcotest ~long:false law_equal_iff_compare;
          QCheck_alcotest.to_alcotest ~long:false law_equal_implies_hash;
          QCheck_alcotest.to_alcotest ~long:false law_equal_reflexive;
        ] );
      ( "schema",
        [
          tc "attr parse" `Quick test_attr_of_string;
          tc "index" `Quick test_schema_index;
          tc "duplicate rejected" `Quick test_schema_duplicate_rejected;
          tc "append/rels" `Quick test_schema_append_and_rels;
          tc "rename" `Quick test_schema_rename;
          tc "index_of_name" `Quick test_schema_index_of_name;
        ] );
      ( "tuple",
        [
          tc "subsumption" `Quick test_tuple_subsumption;
          tc "ops" `Quick test_tuple_ops;
        ] );
      ( "relation",
        [
          tc "dedup" `Quick test_relation_dedup;
          tc "all-null rejected" `Quick test_relation_all_null_rejected;
          tc "arity mismatch" `Quick test_relation_arity_mismatch;
          tc "column values" `Quick test_relation_column_values;
        ] );
      ( "predicate",
        [
          tc "strongness" `Quick test_predicate_strongness;
          tc "three-valued" `Quick test_predicate_three_valued;
          tc "not unknown" `Quick test_predicate_not_unknown;
          tc "or unknown" `Quick test_predicate_or_with_unknown;
          tc "equi atoms" `Quick test_predicate_equi_atoms;
          tc "rename" `Quick test_predicate_rename;
        ] );
      ("expr", [ tc "eval" `Quick test_expr_eval; tc "columns" `Quick test_expr_columns ]);
      ( "algebra",
        [
          tc "join" `Quick test_join;
          tc "null keys" `Quick test_join_null_keys_never_match;
          tc "left outer join" `Quick test_left_outer_join;
          tc "full outer join" `Quick test_full_outer_join;
          tc "nested loop" `Quick test_join_nested_loop_fallback;
          tc "select/project" `Quick test_select_project;
          tc "product" `Quick test_product;
          tc "union/difference" `Quick test_union_difference;
          tc "outer union" `Quick test_outer_union;
          tc "pad" `Quick test_pad;
        ] );
      ( "integrity",
        [
          tc "fk violation" `Quick test_fk_violation;
          tc "pk violation" `Quick test_pk_violation;
          tc "not-null violation" `Quick test_not_null_violation;
          tc "unknown relation" `Quick test_unknown_relation_reported;
          tc "fk join predicate" `Quick test_fk_join_predicate;
        ] );
      ( "database",
        [
          tc "ops" `Quick test_database_ops;
          tc "duplicate rejected" `Quick test_database_duplicate_rejected;
          tc "find value" `Quick test_database_find_value;
        ] );
      ( "arrays",
        [
          tc "create builder" `Quick test_create_builder;
          tc "of_columns builder" `Quick test_of_columns_builder;
          tc "equal_contents" `Quick test_equal_contents_order_insensitive;
        ] );
      ( "changelog",
        [
          tc "insert_tuples" `Quick test_insert_tuples;
          tc "copies share columns" `Quick test_copies_share_columns;
          tc "database stores columns" `Quick test_database_stores_columns;
          tc "replace classification" `Quick test_replace_delta_classification;
          tc "history bounded" `Quick test_history_bounded;
          tc "history eviction counted" `Quick test_history_eviction_counted;
        ] );
      ( "csv",
        [
          tc "roundtrip" `Quick test_csv_roundtrip;
          tc "quoted quotes" `Quick test_csv_quoted_quote;
          tc "database of dir" `Quick test_csv_database_of_dir;
        ] );
      ( "render",
        [
          tc "contains values" `Quick test_render_contains_values;
          tc "annotated" `Quick test_render_annotated;
          tc "edge cases = oracle" `Quick test_render_edge_cases;
          QCheck_alcotest.to_alcotest ~long:false prop_table_matches_oracle;
          QCheck_alcotest.to_alcotest ~long:false prop_relation_matches_oracle;
          QCheck_alcotest.to_alcotest ~long:false prop_annotated_matches_oracle;
          QCheck_alcotest.to_alcotest ~long:false prop_columnar_matches_oracle;
          QCheck_alcotest.to_alcotest ~long:false prop_cell_widths_match_oracle;
          tc "digest buffers are per domain" `Quick test_digest_domains_isolated;
          tc "digest above the buffer cap" `Quick test_digest_above_cap;
          tc "warm digest allocates under 1% of its text" `Quick
            test_digest_allocation;
        ] );
    ]
