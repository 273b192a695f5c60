(* Tests for subsumption, minimum union and full disjunction, including
   QCheck properties checking the columnar sweep and D(G) algorithms
   against naive oracles and the outer-join plan against the per-subgraph
   definition. *)

open Relational
open Fulldisj
module Qgraph = Querygraph.Qgraph

let v_int i = Value.Int i

(* --- Coverage --- *)

let test_coverage_basic () =
  let c = Coverage.of_list [ "B"; "A" ] in
  Alcotest.(check (list string)) "sorted" [ "A"; "B" ] (Coverage.to_list c);
  Alcotest.(check bool) "subset" true
    (Coverage.subset (Coverage.singleton "A") c);
  Alcotest.(check bool) "strict superset" true
    (Coverage.strict_superset c (Coverage.singleton "A"));
  Alcotest.(check bool) "not strict of self" false (Coverage.strict_superset c c)

let test_coverage_label () =
  let short = function
    | "Children" -> Some "C"
    | "PhoneDir" -> Some "Ph"
    | _ -> None
  in
  Alcotest.(check string) "abbrev" "CPh"
    (Coverage.label ~short (Coverage.of_list [ "Children"; "PhoneDir" ]));
  (* When any alias lacks an abbreviation, fall back to the comma form,
     keeping the abbreviations that do exist. *)
  Alcotest.(check string) "fallback" "C,Zed"
    (Coverage.label ~short (Coverage.of_list [ "Children"; "Zed" ]))

(* --- Coverage inference --- *)

let test_coverage_of_tuple () =
  let node_positions = [ ("A", [ 0; 1 ]); ("B", [ 2 ]) ] in
  let t = Tuple.make [ Value.Null; v_int 1; Value.Null ] in
  Alcotest.(check (list string)) "A only" [ "A" ]
    (Coverage.to_list (Coverage.of_tuple node_positions t))

(* A row's null pattern stays exact past one int of aliases: aliases 0
   and 62 would share a bit in a single folded word. *)
let test_of_rows_many_aliases () =
  let aliases = List.init 64 (Printf.sprintf "A%02d") in
  let g = Qgraph.make (List.map (fun a -> (a, a)) aliases) [] in
  let scheme = Schema.of_attrs (List.map (fun a -> Attr.make a "x") aliases) in
  let only k = Tuple.make (List.init 64 (fun c -> if c = k then v_int 1 else Value.Null)) in
  let fd =
    Full_disjunction.of_rows g
      (Relation.create "U" scheme [ only 0; only 62; only 63 ])
  in
  Alcotest.(check (list (list string)))
    "one alias each"
    [ [ "A00" ]; [ "A62" ]; [ "A63" ] ]
    (Array.to_list (Array.map Coverage.to_list fd.Full_disjunction.coverage))

(* --- Min union --- *)

(* [Min_union.sweep] over the tuples as one relation (deduplicated on the
   way in, first occurrence kept). *)
let sweep_tuples = function
  | [] -> []
  | t :: _ as tuples ->
      let schema =
        Schema.make "R" (List.init (Tuple.arity t) (Printf.sprintf "c%d"))
      in
      Relation.tuples
        (Min_union.sweep (Relation.create ~allow_all_null:true "R" schema tuples))

let test_remove_subsumed_simple () =
  let full = Tuple.make [ v_int 1; v_int 2 ] in
  let partial = Tuple.make [ v_int 1; Value.Null ] in
  let other = Tuple.make [ v_int 9; Value.Null ] in
  let kept = sweep_tuples [ full; partial; other ] in
  Alcotest.(check int) "two kept" 2 (List.length kept);
  Alcotest.(check bool) "partial removed" false
    (List.exists (Tuple.equal partial) kept);
  Alcotest.(check bool) "other kept" true (List.exists (Tuple.equal other) kept)

let test_remove_subsumed_all_null () =
  let full = Tuple.make [ v_int 1; v_int 2 ] in
  let empty = Tuple.nulls 2 in
  let kept = sweep_tuples [ full; empty ] in
  Alcotest.(check int) "all-null removed" 1 (List.length kept);
  (* Alone, the all-null tuple is maximal. *)
  Alcotest.(check int) "alone kept" 1 (List.length (sweep_tuples [ empty ]))

let test_min_union_not_commutative_content () =
  (* ⊕ is commutative on contents (schema order may differ). *)
  let mk name cols rows = Relation.create name (Schema.make name cols) rows in
  let a = mk "A" [ "x" ] [ Tuple.make [ v_int 1 ] ] in
  let b = mk "B" [ "y" ] [ Tuple.make [ v_int 2 ] ] in
  let ab = Min_union.min_union a b in
  let ba = Min_union.min_union b a in
  Alcotest.(check int) "same size" (Relation.cardinality ab) (Relation.cardinality ba)

let test_is_minimal () =
  Alcotest.(check bool) "minimal" true
    (Min_union.is_minimal [ Tuple.make [ v_int 1 ]; Tuple.make [ v_int 2 ] ]);
  Alcotest.(check bool) "not minimal" false
    (Min_union.is_minimal
       [ Tuple.make [ v_int 1; v_int 2 ]; Tuple.make [ v_int 1; Value.Null ] ])

(* QCheck: the sweep ≡ naive removal, and the result is minimal. *)
let tuple_list_gen =
  QCheck2.Gen.(
    let* rows = int_range 0 40 in
    let* arity = int_range 1 4 in
    let value_gen =
      frequency [ (1, return Value.Null); (3, map (fun i -> Value.Int i) (int_range 0 3)) ]
    in
    list_repeat rows (map Array.of_list (list_repeat arity value_gen)))

let dedup_tuples tuples =
  List.fold_left
    (fun acc t -> if List.exists (Tuple.equal t) acc then acc else t :: acc)
    [] tuples
  |> List.rev

let prop_indexed_equals_naive =
  QCheck2.Test.make ~name:"remove_subsumed indexed = naive" ~count:300 tuple_list_gen
    (fun tuples ->
      let tuples = dedup_tuples tuples in
      let naive = Min_union.remove_subsumed_naive tuples in
      let swept = sweep_tuples tuples in
      List.length naive = List.length swept
      && List.for_all2 Tuple.equal naive swept)

let prop_result_minimal =
  QCheck2.Test.make ~name:"remove_subsumed result is minimal" ~count:300 tuple_list_gen
    (fun tuples ->
      Min_union.is_minimal (sweep_tuples (dedup_tuples tuples)))

let prop_kept_subset =
  QCheck2.Test.make ~name:"remove_subsumed keeps only inputs" ~count:100 tuple_list_gen
    (fun tuples ->
      let tuples = dedup_tuples tuples in
      sweep_tuples tuples
      |> List.for_all (fun t -> List.exists (Tuple.equal t) tuples))

let prop_every_dropped_is_subsumed =
  QCheck2.Test.make ~name:"dropped tuples are subsumed by a kept one" ~count:200
    tuple_list_gen (fun tuples ->
      let tuples = dedup_tuples tuples in
      let kept = sweep_tuples tuples in
      tuples
      |> List.for_all (fun t ->
             List.exists (Tuple.equal t) kept
             || List.exists (fun k -> Tuple.strictly_subsumes k t) kept))

(* The sweep at every width: narrow schemes and schemes around the int
   bitmask's width, where columns [p] and [p + fold] share a mask bit.
   Rows are drawn fresh or derived from drawn rows: with nulls filled in
   or cells nulled out (so wide rows still subsume each other); with
   cells [p] and [p + fold] swapped (the same folded mask, another null
   pattern); or as a fold pair, two rows non-null at [p] that differ only
   in [p + fold], null in one of them (the same folded mask, one strictly
   subsuming the other).  Values include Int/Float twins, and an
   all-null row may join.  Kept rows must match the pairwise oracle's,
   in order and byte for byte. *)
let wide_sweep_gen =
  QCheck2.Gen.(
    let fold = Col_ops.mask_arity_limit in
    let* arity = frequency [ (1, int_range 1 8); (1, int_range 55 70) ] in
    let cell_gen =
      frequency
        [
          (3, map (fun i -> Value.Int i) (int_range 0 3));
          (1, map (fun i -> Value.Float (float_of_int i)) (int_range 0 3));
        ]
    in
    let value_gen = frequency [ (1, return Value.Null); (2, cell_gen) ] in
    let tuple_gen = array_repeat arity value_gen in
    let* drawn = list_size (int_range 0 12) tuple_gen in
    let derive f =
      match drawn with [] -> map (fun t -> [ t ]) tuple_gen | _ -> oneofl drawn >>= f
    in
    let extend t =
      map
        (fun fills -> [ Array.mapi (fun i v -> if Value.is_null v then fills.(i) else v) t ])
        (array_repeat arity value_gen)
    in
    let cut t =
      map
        (fun drops -> [ Array.mapi (fun i v -> if drops.(i) then Value.Null else v) t ])
        (array_repeat arity (frequency [ (4, return false); (1, return true) ]))
    in
    let folded p = int_range 0 (arity - fold - 1) >>= p in
    let fold_swap t =
      if arity <= fold then return [ t ]
      else
        folded (fun p ->
            let t = Array.copy t in
            let v = t.(p) in
            t.(p) <- t.(p + fold);
            t.(p + fold) <- v;
            return [ t ])
    in
    let fold_pair t =
      if arity <= fold then return [ t ]
      else
        folded (fun p ->
            map2
              (fun v w ->
                let full = Array.copy t in
                full.(p) <- v;
                full.(p + fold) <- w;
                let part = Array.copy full in
                part.(p + fold) <- Value.Null;
                [ full; part ])
              cell_gen cell_gen)
    in
    let* derived =
      list_size (int_range 0 30)
        (frequency
           [ (2, derive extend); (2, derive cut); (1, derive fold_swap); (1, derive fold_pair) ])
    in
    let* all_null = bool in
    let* rows =
      shuffle_l
        (drawn @ List.concat derived @ if all_null then [ Tuple.nulls arity ] else [])
    in
    return (arity, rows))

let prop_sweep_equals_naive =
  QCheck2.Test.make ~name:"sweep = naive at every width" ~count:300 wide_sweep_gen
    (fun (arity, rows) ->
      let schema = Schema.make "R" (List.init arity (Printf.sprintf "c%d")) in
      let rel = Relation.create ~allow_all_null:true "R" schema rows in
      let swept = Relation.tuples (Min_union.sweep rel) in
      let naive = Min_union.remove_subsumed_naive (Relation.tuples rel) in
      List.equal
        (fun a b -> String.equal (Tuple.to_string a) (Tuple.to_string b))
        swept naive)

(* --- incremental merge: minimum union of a minimal base with a batch --- *)

(* The merge the flags describe: the kept base rows, then the kept batch
   rows, each in their order. *)
let merge_by_flags ?pool base batch =
  let base = Array.of_list base and batch = Array.of_list batch in
  let base_keep, batch_keep = Min_union.merge_keep_flags ?pool ~base batch in
  let kept flags rows = List.filteri (fun i _ -> flags.(i)) (Array.to_list rows) in
  kept base_keep base @ kept batch_keep batch

let test_merge_keep_flags_unit () =
  let t a b c = Tuple.make [ a; b; c ] in
  let base = [ t (v_int 1) (v_int 2) Value.Null; t (v_int 9) Value.Null Value.Null ] in
  let kept =
    merge_by_flags base
      [
        (* Strictly subsumes the first base tuple: replaces it. *)
        t (v_int 1) (v_int 2) (v_int 3);
        (* Strictly subsumed by the tuple above: dropped. *)
        t (v_int 1) Value.Null (v_int 3);
        (* Duplicate of a base tuple: dropped before merging. *)
        t (v_int 9) Value.Null Value.Null;
        (* Incomparable: kept. *)
        t (v_int 7) (v_int 8) Value.Null;
      ]
  in
  Alcotest.(check int) "kept count" 3 (List.length kept);
  Alcotest.(check bool) "subsumed base tuple gone" false
    (List.exists (Tuple.equal (t (v_int 1) (v_int 2) Value.Null)) kept);
  Alcotest.(check bool) "result minimal" true (Min_union.is_minimal kept);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Min_union.merge_keep_flags: delta tuple arity mismatch")
    (fun () ->
      ignore
        (Min_union.merge_keep_flags ~base:(Array.of_list base)
           [| Tuple.make [ v_int 1; v_int 2 ] |]))

let test_merge_keep_flags_noop () =
  let base_keep, batch_keep =
    Min_union.merge_keep_flags ~base:[| Tuple.make [ v_int 1 ] |]
      [| Tuple.make [ v_int 1 ] |]
  in
  Alcotest.(check (pair (array bool) (array bool)))
    "all-duplicate batch keeps the base and nothing else" ([| true |], [| false |])
    (base_keep, batch_keep)

(* Base and batch share one arity (merge_keep_flags validates it).  Batch
   rows are drawn to hit every repair case: fresh rows; copies of base
   rows; base rows with nulls filled in (they subsume a base row) or with
   cells nulled out (a base row subsumes them); and repeats within the
   batch.  Batches run up to twice the largest base. *)
let merge_gen =
  QCheck2.Gen.(
    (* Sometimes wider than an int bitmask, where null patterns fold. *)
    let* arity = frequency [ (9, int_range 1 4); (1, int_range 60 70) ] in
    let value_gen =
      frequency [ (1, return Value.Null); (3, map (fun i -> Value.Int i) (int_range 0 3)) ]
    in
    let tuple_gen = map Array.of_list (list_repeat arity value_gen) in
    let* base = list_size (int_range 0 40) tuple_gen in
    let from_base f =
      match base with [] -> tuple_gen | _ -> oneofl base >>= f
    in
    let extend t =
      map
        (fun fills ->
          Array.mapi (fun i v -> if Value.is_null v then fills.(i) else v) t)
        (array_repeat arity value_gen)
    in
    let cut t =
      map
        (fun drops -> Array.mapi (fun i v -> if drops.(i) then Value.Null else v) t)
        (array_repeat arity bool)
    in
    let row_gen =
      frequency
        [ (3, tuple_gen); (2, from_base return); (2, from_base extend); (2, from_base cut) ]
    in
    let* rows = list_size (int_range 0 80) row_gen in
    let* repeats =
      match rows with
      | [] -> return []
      | _ -> list_size (int_range 0 10) (oneofl rows)
    in
    let* batch = shuffle_l (rows @ repeats) in
    return (arity, base, batch))

let sorted_tuples ts = List.sort Tuple.compare ts

let check_merge_equals_reminimize ?pool (_arity, base_raw, batch) =
  let base_minimal = Min_union.remove_subsumed_naive (dedup_tuples base_raw) in
  let merged = merge_by_flags ?pool base_minimal batch in
  let reference =
    Min_union.remove_subsumed_naive (dedup_tuples (base_minimal @ batch))
  in
  let a = sorted_tuples merged in
  let b = sorted_tuples reference in
  List.length a = List.length b && List.for_all2 Tuple.equal a b

let prop_merge_equals_reminimize =
  QCheck2.Test.make
    ~name:"merge_keep_flags base batch = re-minimize (base ∪ batch)" ~count:300
    merge_gen check_merge_equals_reminimize

let prop_merge_equals_reminimize_pooled =
  QCheck2.Test.make
    ~name:"merge_keep_flags with a Par pool gives the identical result" ~count:100
    merge_gen
    (check_merge_equals_reminimize ?pool:(Par.get_pool ~jobs:4))

(* --- Full disjunction on a concrete instance --- *)

let eq r1 c1 r2 c2 = Predicate.eq_cols (Attr.make r1 c1) (Attr.make r2 c2)
let mk name cols rows = Relation.create name (Schema.make name cols) rows

(* A(id) -- B(aid, cid) -- C(id): B links A and C. *)
let small_db =
  Database.of_relations
    [
      mk "A" [ "id"; "pa" ]
        [ Tuple.make [ v_int 1; v_int 10 ]; Tuple.make [ v_int 2; v_int 20 ] ];
      mk "B" [ "aid"; "cid" ]
        [
          Tuple.make [ v_int 1; v_int 7 ];
          Tuple.make [ v_int 9; v_int 8 ];
          Tuple.make [ v_int 2; Value.Null ];
        ];
      mk "C" [ "id"; "pc" ]
        [ Tuple.make [ v_int 7; v_int 70 ]; Tuple.make [ v_int 5; v_int 50 ] ];
    ]

let small_graph =
  Qgraph.make
    [ ("A", "A"); ("B", "B"); ("C", "C") ]
    [ ("A", "B", eq "A" "id" "B" "aid"); ("B", "C", eq "B" "cid" "C" "id") ]

let test_full_associations () =
  let f =
    Join_eval.full_associations (Source.of_fn (Database.find small_db)) small_graph
  in
  (* Only A1-B(1,7)-C7 fully joins. *)
  Alcotest.(check int) "one full association" 1 (Relation.cardinality f)

let test_full_disjunction_small () =
  let fd = Full_disjunction.compute (Source.of_db small_db) small_graph in
  let by_label =
    Full_disjunction.categories fd
    |> List.map (fun (c, l) -> (Coverage.to_list c, List.length l))
    |> List.sort compare
  in
  (* ABC: (1,B17,C7).  AB: (2,B2null).  B: (9,8) — its cid 8 matches no C.
     C: (5).  A alone: none (both a's join).  Wait: B(9,8): dangles on both
     sides → category B.  C5 dangles → category C.  C7 is in ABC. *)
  Alcotest.(check (list (pair (list string) int)))
    "categories"
    (List.sort compare
       [
         ([ "A"; "B"; "C" ], 1);
         ([ "A"; "B" ], 1);
         ([ "B" ], 1);
         ([ "C" ], 1);
       ])
    by_label

let test_naive_equals_indexed_small () =
  let a = Full_disjunction.naive (Source.of_db small_db) small_graph in
  let b = Full_disjunction.compute (Source.of_db small_db) small_graph in
  Alcotest.(check bool) "same D(G)" true
    (Relation.equal_contents
       (Full_disjunction.to_relation a)
       (Full_disjunction.to_relation b))

let test_outerjoin_plan_small () =
  let a = Full_disjunction.compute (Source.of_db small_db) small_graph in
  let b =
    Outerjoin_plan.full_disjunction (Source.of_fn (Database.find small_db)) small_graph
  in
  Alcotest.(check bool) "oj = naive" true
    (Relation.equal_contents
       (Full_disjunction.to_relation a)
       (Full_disjunction.to_relation b))

let triangle =
  Qgraph.make
    [ ("A", "A"); ("B", "B"); ("C", "C") ]
    [
      ("A", "B", eq "A" "id" "B" "aid");
      ("B", "C", eq "B" "cid" "C" "id");
      ("A", "C", eq "A" "id" "C" "id");
    ]

let test_outerjoin_rejects_cycles () =
  Alcotest.check_raises "not a tree"
    (Invalid_argument "Outerjoin_plan.full_disjunction: not a tree") (fun () ->
      ignore
        (Outerjoin_plan.full_disjunction (Source.of_fn (Database.find small_db)) triangle))

let test_rooted_is_root_covering_subset () =
  let fd = Full_disjunction.compute (Source.of_db small_db) small_graph in
  let rooted =
    Outerjoin_plan.rooted (Source.of_fn (Database.find small_db)) ~root:"A" small_graph
  in
  let expected =
    Relation.tuples (Full_disjunction.restrict (Coverage.mem "A") fd).Full_disjunction.rows
    |> List.sort Tuple.compare
  in
  let got = Relation.tuples rooted.Full_disjunction.rows |> List.sort Tuple.compare in
  Alcotest.(check int) "size" (List.length expected) (List.length got);
  Alcotest.(check bool) "same tuples" true (List.for_all2 Tuple.equal expected got)

let test_possible_associations_superset () =
  let poss =
    Full_disjunction.possible_associations (Source.of_fn (Database.find small_db)) small_graph
  in
  let fd = Full_disjunction.compute (Source.of_db small_db) small_graph in
  Alcotest.(check bool) "D(G) ⊆ S(G)" true
    (List.for_all
       (Relation.mem poss.Full_disjunction.rows)
       (Relation.tuples fd.Full_disjunction.rows))

(* QCheck: all three algorithms agree on random tree instances. *)
let tree_instance_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 10000 in
    let* n = int_range 1 5 in
    let* rows = int_range 0 12 in
    return (seed, n, rows))

let prop_algorithms_agree =
  QCheck2.Test.make ~name:"naive = indexed = outerjoin on random trees" ~count:60
    tree_instance_gen (fun (seed, n, rows) ->
      let st = Random.State.make [| seed |] in
      let inst =
        Synth.Gen_graph.random_tree st ~n ~rows ~null_prob:0.3 ~orphan_prob:0.2 ()
      in
      let lookup = Database.find inst.Synth.Gen_graph.db in
      let g = inst.Synth.Gen_graph.graph in
      let rel r = Full_disjunction.to_relation r in
      let a = rel (Full_disjunction.naive (Source.of_fn lookup) g) in
      let b = rel (Full_disjunction.compute (Source.of_fn lookup) g) in
      let c = rel (Outerjoin_plan.full_disjunction (Source.of_fn lookup) g) in
      Relation.equal_contents a b && Relation.equal_contents a c)

let prop_fd_is_minimal =
  QCheck2.Test.make ~name:"D(G) has no subsumed tuples" ~count:60 tree_instance_gen
    (fun (seed, n, rows) ->
      let st = Random.State.make [| seed |] in
      let inst =
        Synth.Gen_graph.random_tree st ~n ~rows ~null_prob:0.3 ~orphan_prob:0.2 ()
      in
      let fd =
        Full_disjunction.compute (Source.of_fn (Database.find inst.Synth.Gen_graph.db))
          inst.Synth.Gen_graph.graph
      in
      Min_union.is_minimal (Relation.tuples fd.Full_disjunction.rows))

let prop_coverage_matches_nullness =
  QCheck2.Test.make ~name:"coverage tag matches null pattern" ~count:60
    tree_instance_gen (fun (seed, n, rows) ->
      let st = Random.State.make [| seed |] in
      let inst =
        Synth.Gen_graph.random_tree st ~n ~rows ~null_prob:0.3 ~orphan_prob:0.2 ()
      in
      let fd =
        Full_disjunction.compute (Source.of_fn (Database.find inst.Synth.Gen_graph.db))
          inst.Synth.Gen_graph.graph
      in
      Relation.tuples_array fd.Full_disjunction.rows
      |> Array.for_all2
           (fun c t ->
             Coverage.equal c
               (Coverage.of_tuple fd.Full_disjunction.node_positions t))
           fd.Full_disjunction.coverage)

(* --- Plan / explain --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_plan_tree_vs_cyclic () =
  let lookup = Database.find small_db in
  let p = Plan.analyze ~lookup small_graph in
  Alcotest.(check int) "tree edges" 2 p.Plan.edges;
  Alcotest.(check int) "tree categories" 6 p.Plan.categories;
  let p2 = Plan.analyze ~lookup triangle in
  Alcotest.(check int) "cycle edges" 3 p2.Plan.edges;
  (* Every non-empty subset of a triangle is connected. *)
  Alcotest.(check int) "cycle categories" 7 p2.Plan.categories;
  Alcotest.(check (list string)) "join order" [ "A"; "B"; "C" ] p2.Plan.join_order

let test_plan_render () =
  let lookup = Database.find small_db in
  let s = Plan.render (Plan.analyze ~lookup small_graph) in
  Alcotest.(check bool) "one plan, no cascade" false (contains s "cascade");
  Alcotest.(check bool) "names the min-union" true (contains s "minimum union");
  Alcotest.(check bool) "mentions cardinalities" true (contains s "base cardinalities");
  Alcotest.(check bool) "join order" true (contains s "A -> B -> C")

(* --- the served D(G) against the naive oracle, coverage included --- *)

(* Same tuples (byte for byte, so an Int 1 may not stand in for a
   Float 1.0), same coverage tags, same order. *)
let same_associations (a : Full_disjunction.result) (b : Full_disjunction.result) =
  let rows r = Relation.tuples_array r.Full_disjunction.rows in
  Array.length (rows a) = Array.length (rows b)
  && Array.for_all2
       (fun x y -> String.equal (Tuple.to_string x) (Tuple.to_string y))
       (rows a) (rows b)
  && Array.for_all2 Coverage.equal a.Full_disjunction.coverage
       b.Full_disjunction.coverage

(* Null-heavy cells drawn from values that are equal but spelled apart
   (Int 1 / Float 1.0, 0 / -0.) or that misbehave under IEEE comparison
   (NaN, ±inf). *)
let adversarial_value =
  QCheck2.Gen.(
    frequency
      [
        (4, return Value.Null);
        (3, map (fun i -> Value.Int i) (int_range 0 2));
        (2, map (fun i -> Value.Float (float_of_int i)) (int_range 0 2));
        ( 1,
          oneofl
            [
              Value.Float (-0.);
              Value.Float Float.nan;
              Value.Float Float.infinity;
              Value.Float Float.neg_infinity;
            ] );
      ])

let adversarial_rel name cols =
  QCheck2.Gen.(
    let* rows =
      list_size (int_range 0 8) (list_repeat (List.length cols) adversarial_value)
    in
    return
      (mk name cols
         (List.map Tuple.make rows |> List.filter (fun t -> not (Tuple.all_null t)))))

(* A(id, x) -- B(aid, cid) -- C(id, z) as a chain, or closed into a
   triangle by A.id = C.id; or a lib/synth random tree. *)
let dg_instance_gen =
  QCheck2.Gen.(
    let adversarial =
      let* a = adversarial_rel "A" [ "id"; "x" ] in
      let* b = adversarial_rel "B" [ "aid"; "cid" ] in
      let* c = adversarial_rel "C" [ "id"; "z" ] in
      let* cyclic = bool in
      return
        ( Database.of_relations [ a; b; c ],
          if cyclic then triangle else small_graph )
    in
    let synth_tree =
      let* seed = int_range 0 10000 in
      let* n = int_range 1 5 in
      let* rows = int_range 0 12 in
      let inst =
        Synth.Gen_graph.random_tree (Random.State.make [| seed |]) ~n ~rows
          ~null_prob:0.5 ~orphan_prob:0.3 ()
      in
      return (inst.Synth.Gen_graph.db, inst.Synth.Gen_graph.graph)
    in
    frequency [ (3, adversarial); (1, synth_tree) ])

(* Inserts into some of the instance's relations, several rows each:
   fresh rows, and copies of rows already there (re-inserts, which the
   repair must absorb).  Each relation's rows in insertion order. *)
let inserts_gen db =
  QCheck2.Gen.(
    let batch r =
      let arity = Schema.arity (Relation.schema r) in
      let fresh = map Tuple.make (list_repeat arity adversarial_value) in
      let row =
        match Relation.tuples r with
        | [] -> fresh
        | ts -> frequency [ (2, fresh); (1, oneofl ts) ]
      in
      let* touched = bool in
      let* rows = list_size (int_range 1 4) row in
      return
        (if touched then
           Some (Relation.name r, List.filter (fun t -> not (Tuple.all_null t)) rows)
         else None)
    in
    map (List.filter_map Fun.id) (flatten_l (List.map batch (Database.relations db))))

let prop_delta_equals_compute =
  QCheck2.Test.make
    ~name:"delta after inserts = compute from scratch: tuples, coverage and order"
    ~count:300
    ~print:(fun (db, g, changed) ->
      String.concat "\n"
        (Qgraph.to_string g
         :: List.map (fun r -> Render.relation r) (Database.relations db)
        @ List.map
            (fun (n, rows) ->
              n ^ " += " ^ String.concat "; " (List.map Tuple.to_string rows))
            changed))
    QCheck2.Gen.(
      let* db, g = dg_instance_gen in
      let* changed = inserts_gen db in
      return (db, g, changed))
    (fun (db, g, changed) ->
      let old = Full_disjunction.compute (Source.of_db db) g in
      let db' =
        List.fold_left
          (fun db (name, rows) -> Database.insert_tuples db name rows)
          db changed
      in
      (* Each row as the database spells it: a row equal to one already
         there (say Int 0 beside Float -0.) inserts nothing, so only an
         exact re-insert may name it. *)
      let changed =
        List.map
          (fun (name, rows) ->
            let held = Relation.tuples (Database.get db' name) in
            (name, List.map (fun t -> List.find (Tuple.equal t) held) rows))
          changed
      in
      let src' = Source.of_db db' in
      same_associations
        (Full_disjunction.delta src' g ~old ~changed)
        (Full_disjunction.compute src' g))

let prop_compute_equals_naive =
  QCheck2.Test.make ~name:"compute = naive: tuples, coverage tags and order"
    ~count:300 dg_instance_gen (fun (db, g) ->
      let src = Source.of_db db in
      same_associations (Full_disjunction.compute src g) (Full_disjunction.naive src g))

(* A scheme wider than an int bitmask, where the sweep's null masks fold.
   W1 rows that join W2 are subsumed by their joined image; dangling rows
   on either side survive padded. *)
let test_wide_scheme_matches_naive () =
  let width1 = 40 and width2 = 30 in
  let cols prefix n = List.init n (Printf.sprintf "%s%d" prefix) in
  let row k n = Tuple.make (v_int k :: List.init (n - 1) (fun c -> if c mod 3 = 0 then Value.Null else v_int (k + c))) in
  let db =
    Database.of_relations
      [
        mk "W1" ("k" :: cols "a" (width1 - 1)) (List.map (fun k -> row k width1) [ 1; 2; 3; 4 ]);
        mk "W2" ("k" :: cols "b" (width2 - 1)) (List.map (fun k -> row k width2) [ 2; 4; 6 ]);
      ]
  in
  let g = Qgraph.make [ ("W1", "W1"); ("W2", "W2") ] [ ("W1", "W2", eq "W1" "k" "W2" "k") ] in
  let src = Source.of_db db in
  let fd = Full_disjunction.compute src g in
  Alcotest.(check bool) "wider than a bitmask" true
    (Schema.arity fd.Full_disjunction.scheme > Col_ops.mask_arity_limit);
  (* W1 1,3 and W2 6 dangle; 2 and 4 join. *)
  Alcotest.(check int) "associations" 5 (Relation.cardinality fd.Full_disjunction.rows);
  Alcotest.(check bool) "= naive" true
    (same_associations fd (Full_disjunction.naive src g))

(* The padded category union, as [compute_relation] builds it: every
   connected node set's F(J), padded to the graph's scheme, in order. *)
let padded_union src g =
  let scheme = Source.scheme src g in
  Col_ops.concat
    (List.map
       (fun aliases ->
         Relation.columns
           (Algebra.pad
              (Join_eval.full_associations src (Qgraph.induced g aliases))
              scheme))
       (Querygraph.Subgraphs.connected_node_sets g))

let synth_instance (seed, shape, size, rows) =
  let st = Random.State.make [| seed |] in
  let inst =
    match shape with
    | 0 -> Synth.Gen_graph.chain st ~n:size ~rows ~null_prob:0.3 ~orphan_prob:0.25 ()
    | 1 -> Synth.Gen_graph.star st ~leaves:size ~rows ~null_prob:0.3 ~orphan_prob:0.25 ()
    | _ -> Synth.Gen_graph.random_tree st ~n:size ~rows ~null_prob:0.3 ~orphan_prob:0.25 ()
  in
  (inst.Synth.Gen_graph.db, inst.Synth.Gen_graph.graph)

(* Categories have distinct null patterns and each F(J) is a set, so the
   union needs no dedup pass: on synthetic chains, stars and trees with
   null and orphan foreign keys ... *)
let prop_padded_union_is_set =
  QCheck2.Test.make ~name:"padded category union is a set" ~count:150
    ~print:(fun (seed, shape, size, rows) ->
      Printf.sprintf "seed %d shape %d size %d rows %d" seed shape size rows)
    QCheck2.Gen.(
      quad (int_range 0 100_000) (int_range 0 2) (int_range 1 4) (int_range 0 40))
    (fun params ->
      let db, g = synth_instance params in
      Col_ops.dedup_keep_first (padded_union (Source.of_db db) g) = None)

(* ... and on the paper's Figure 1 graphs. *)
let test_padded_union_is_set_figure1 () =
  let src = Source.of_db Paperdata.Figure1.database in
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) name true
        (Col_ops.dedup_keep_first (padded_union src g) = None))
    [
      ("G", Paperdata.Running.graph_g);
      ("G1", Paperdata.Running.graph_g1);
      ("G2", Paperdata.Running.graph_g2);
      ("Figure 9", Paperdata.Running.fig9_graph);
      ("Section 2", Paperdata.Running.section2_mapping.Clio.Mapping.graph);
    ]

(* D(G) at size, where F(J)'s canonical sort takes the integer-key path:
   300+ shuffled ids per relation. *)
let test_compute_equals_naive_at_size () =
  List.iter
    (fun ((_, shape, size, rows) as params) ->
      let db, g = synth_instance params in
      let src = Source.of_db db in
      Alcotest.(check bool)
        (Printf.sprintf "shape %d, %d relations of %d rows" shape size rows)
        true
        (same_associations (Full_disjunction.compute src g)
           (Full_disjunction.naive src g)))
    [ (11, 0, 3, 300); (12, 1, 3, 320); (13, 2, 4, 300); (14, 0, 2, 400) ]

(* The left-outer cascade along [join_plan ~root] keeps exactly the D(G)
   rows whose coverage holds the root, for every root of chains, stars and
   trees with null and orphan foreign keys: same rows, rendering and
   coverage tags, in the same order. *)
let prop_rooted_is_root_covering_dg =
  QCheck2.Test.make ~name:"rooted = D(G) rows covering the root, every root" ~count:100
    ~print:(fun (seed, shape, size, rows) ->
      Printf.sprintf "seed %d shape %d size %d rows %d" seed shape size rows)
    QCheck2.Gen.(
      quad (int_range 0 100_000) (int_range 0 2) (int_range 1 4) (int_range 0 12))
    (fun params ->
      let db, g = synth_instance params in
      let src = Source.of_db db in
      let fd = Full_disjunction.compute src g in
      List.for_all
        (fun root ->
          let rooted = Outerjoin_plan.rooted src ~root g in
          let expected = Full_disjunction.restrict (Coverage.mem root) fd in
          same_associations rooted expected
          && String.equal
               (Render.relation rooted.Full_disjunction.rows)
               (Render.relation expected.Full_disjunction.rows))
        (Qgraph.aliases g))

(* A stored relation may hold an all-null row (a relation built with
   [~allow_all_null:true]); padded, it lands in another category's null
   pattern.  Here B's only row is all-null and the edge admits it, so
   F({A, B}) pads to exactly the rows of F({A}). *)
let test_stored_all_null_row () =
  let b =
    Relation.create ~allow_all_null:true "B" (Schema.make "B" [ "k" ])
      [ Tuple.make [ Value.Null ] ]
  in
  let db =
    Database.of_relations
      [ mk "A" [ "id" ] [ Tuple.make [ v_int 1 ]; Tuple.make [ v_int 2 ] ]; b ]
  in
  let g =
    Qgraph.make
      [ ("A", "A"); ("B", "B") ]
      [ ("A", "B", Predicate.Is_null (Expr.Col (Attr.make "B" "k"))) ]
  in
  let src = Source.of_db db in
  let fd = Full_disjunction.compute src g in
  Alcotest.(check int) "associations" 2 (Relation.cardinality fd.Full_disjunction.rows);
  Alcotest.(check bool) "= naive" true
    (same_associations fd (Full_disjunction.naive src g))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "fulldisj"
    [
      ( "coverage",
        [
          tc "basic" `Quick test_coverage_basic;
          tc "label" `Quick test_coverage_label;
          tc "of tuple" `Quick test_coverage_of_tuple;
          tc "of_rows past 62 aliases" `Quick test_of_rows_many_aliases;
        ] );
      ( "min_union",
        [
          tc "remove subsumed" `Quick test_remove_subsumed_simple;
          tc "all-null tuple" `Quick test_remove_subsumed_all_null;
          tc "commutative contents" `Quick test_min_union_not_commutative_content;
          tc "is_minimal" `Quick test_is_minimal;
          tc "merge_keep_flags" `Quick test_merge_keep_flags_unit;
          tc "merge_keep_flags no-op" `Quick test_merge_keep_flags_noop;
        ] );
      ( "full_disjunction",
        [
          tc "full associations" `Quick test_full_associations;
          tc "small instance categories" `Quick test_full_disjunction_small;
          tc "naive = indexed" `Quick test_naive_equals_indexed_small;
          tc "outerjoin plan" `Quick test_outerjoin_plan_small;
          tc "outerjoin rejects cycles" `Quick test_outerjoin_rejects_cycles;
          tc "rooted subset" `Quick test_rooted_is_root_covering_subset;
          tc "possible ⊇ D(G)" `Quick test_possible_associations_superset;
          tc "wide scheme = naive" `Quick test_wide_scheme_matches_naive;
          tc "padded union is a set: Figure 1" `Quick
            test_padded_union_is_set_figure1;
          tc "compute = naive at size" `Quick test_compute_equals_naive_at_size;
          tc "stored all-null row" `Quick test_stored_all_null_row;
        ] );
      ( "plan",
        [
          tc "tree vs cyclic" `Quick test_plan_tree_vs_cyclic;
          tc "render" `Quick test_plan_render;
        ] );
      qsuite "properties:min_union"
        [
          prop_indexed_equals_naive;
          prop_result_minimal;
          prop_kept_subset;
          prop_every_dropped_is_subsumed;
          prop_sweep_equals_naive;
          prop_merge_equals_reminimize;
          prop_merge_equals_reminimize_pooled;
        ];
      qsuite "properties:full_disjunction"
        [
          prop_algorithms_agree;
          prop_fd_is_minimal;
          prop_coverage_matches_nullness;
          prop_compute_equals_naive;
          prop_padded_union_is_set;
          prop_delta_equals_compute;
          prop_rooted_is_root_covering_dg;
        ];
    ]
