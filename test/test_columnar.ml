(* The columnar data plane's contract, in two halves:

   1. Laws of the substrate — Value_pool interning (structural round-trip,
      class quotient = Value.equal, flat sort keys) and the Col_ops batch
      kernels (bucket indexes, set dedup, canonical sort) against their
      naive boxed oracles.

   2. Parity — every operator with a columnar kernel agrees with a small
      tuple-at-a-time oracle defined here: algebra operators (joins as
      select over product), min-union subsumption (the pairwise scan),
      full disjunction (direct, via compute, incrementally via delta, all
      against the naive algorithm), under jobs 1 and 4, with and without
      the engine cache.  The generators are deliberately adversarial:
      Int/Float collisions (Int 1 vs Float 1.0), NaN, signed zeros,
      strings, nulls and tiny domains that force duplicates and
      subsumption. *)

open Relational
module Qgraph = Querygraph.Qgraph

let qtest t = QCheck_alcotest.to_alcotest ~long:false t
let render r = Fmt.str "%a" Relation.pp r

(* --- adversarial value generator --- *)

let value_gen =
  QCheck2.Gen.(
    frequency
      [
        (2, return Value.Null);
        (1, map (fun b -> Value.Bool b) bool);
        (4, map (fun i -> Value.Int i) (int_range 0 3));
        (1, return (Value.Int 1073741823));
        (2, map (fun i -> Value.Float (float_of_int i)) (int_range 0 3));
        ( 2,
          oneofl
            [
              Value.Float nan;
              Value.Float 0.;
              Value.Float (-0.);
              Value.Float infinity;
              Value.Float 0.5;
            ] );
        (2, map (fun i -> Value.String (Printf.sprintf "s%d" i)) (int_range 0 2));
      ])

let tuple_gen arity = QCheck2.Gen.(map Array.of_list (list_repeat arity value_gen))
let tuples_gen arity = QCheck2.Gen.(list_size (int_range 0 30) (tuple_gen arity))

(* --- 1a. Value_pool laws --- *)

let prop_intern_roundtrip =
  QCheck2.Test.make ~name:"intern/resolve round-trips bit-exactly" ~count:500
    value_gen (fun v ->
      let id = Value_pool.intern v in
      let v' = Value_pool.resolve id in
      (* Structural identity is stronger than Value.equal: the rendered
         text (what .pp ultimately prints) must be byte-identical, and
         re-interning must return the same id. *)
      String.equal (Value.to_string v) (Value.to_string v')
      && Value_pool.intern v' = id)

let prop_class_is_value_equal =
  QCheck2.Test.make ~name:"class_of quotients exactly by Value.equal" ~count:1000
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) ->
      let ca = Value_pool.class_of (Value_pool.intern a)
      and cb = Value_pool.class_of (Value_pool.intern b) in
      Value.equal a b = (ca = cb))

let prop_compare_resolved_sign =
  QCheck2.Test.make ~name:"compare_resolved sign = Value.compare sign" ~count:1000
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) ->
      let c = Value_pool.compare_resolved (Value_pool.intern a) (Value_pool.intern b) in
      Stdlib.compare c 0 = Stdlib.compare (Value.compare a b) 0)

let prop_sort_key_consistent =
  QCheck2.Test.make ~name:"flat sort keys agree with compare_resolved" ~count:1000
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) ->
      let ia = Value_pool.intern a and ib = Value_pool.intern b in
      let ta, fa = Value_pool.sort_key ia and tb, fb = Value_pool.sort_key ib in
      let key_cmp =
        let c = Char.compare ta tb in
        if c <> 0 then c else Float.compare fa fb
      in
      (* Keys may tie where the exact compare doesn't, never the converse. *)
      key_cmp = 0 || Stdlib.compare key_cmp 0 = Stdlib.compare (Value_pool.compare_resolved ia ib) 0)

let unit_null_is_zero () =
  Alcotest.(check int) "null id" 0 Value_pool.null_id;
  Alcotest.(check int) "interning Null" 0 (Value_pool.intern Value.Null);
  Alcotest.(check int) "null class" 0 (Value_pool.class_of Value_pool.null_id);
  Alcotest.(check bool) "is_null 0" true (Value_pool.is_null 0)

let unit_classes_nontrivial_after_alias () =
  (* The suites above intern Int 1 and Float 1.0; once any such
     cross-constructor pair exists the trivial-classes fast path must be
     off — and it never comes back (monotone). *)
  ignore (Value_pool.intern (Value.Int 1));
  ignore (Value_pool.intern (Value.Float 1.0));
  Alcotest.(check bool) "aliased pool" false (Value_pool.classes_trivial ());
  ignore (Value_pool.intern (Value.Int 999_983));
  Alcotest.(check bool) "stays false" false (Value_pool.classes_trivial ())

(* --- 1b. Col_ops laws --- *)

let column_gen =
  (* Ids from a small interned domain, with nulls; aliased pairs included
     so class columns differ from structural columns. *)
  QCheck2.Gen.(list_size (int_range 0 40) (map Value_pool.intern value_gen))

let prop_buckets_exact =
  QCheck2.Test.make ~name:"Buckets groups = exact value occurrences" ~count:500
    column_gen (fun cells ->
      let col = Array.of_list cells in
      let t = Col_ops.Buckets.make col in
      let rows = Col_ops.Buckets.rows t in
      let distinct = List.sort_uniq compare (List.filter (fun v -> v <> 0) cells) in
      List.for_all
        (fun v ->
          let start, len = Col_ops.Buckets.span t v in
          let expect =
            List.mapi (fun i c -> (i, c)) (Array.to_list col)
            |> List.filter (fun (_, c) -> c = v)
            |> List.map fst
          in
          len = List.length expect
          && len = Col_ops.Buckets.count t v
          && List.init len (fun k -> rows.(start + k)) = expect)
        distinct
      && Col_ops.Buckets.span t 0 = (0, 0)
      && Array.length rows = List.length (List.filter (fun v -> v <> 0) cells))

let unit_buckets_sparse () =
  (* Force the hashtable fallback: a tiny column over ids spread much
     wider than [4n + 1024] apart. *)
  let wide = Array.init 3000 (fun k -> Value_pool.intern (Value.Int (7_000_000 + k))) in
  let col = [| wide.(0); wide.(2999); 0; wide.(0); wide.(1500) |] in
  let t = Col_ops.Buckets.make col in
  Alcotest.(check int) "count first" 2 (Col_ops.Buckets.count t wide.(0));
  Alcotest.(check int) "count last" 1 (Col_ops.Buckets.count t wide.(2999));
  Alcotest.(check int) "count absent" 0 (Col_ops.Buckets.count t wide.(7));
  Alcotest.(check int) "count null" 0 (Col_ops.Buckets.count t 0);
  let start, len = Col_ops.Buckets.span t wide.(0) in
  Alcotest.(check (list int)) "rows of first" [ 0; 3 ]
    (List.init len (fun k -> (Col_ops.Buckets.rows t).(start + k)))

let cols_of_tuples tuples arity =
  Array.init arity (fun c ->
      Array.of_list (List.map (fun t -> Value_pool.intern t.(c)) tuples))

let prop_dedup_matches_boxed =
  QCheck2.Test.make ~name:"dedup_keep_first = boxed first-occurrence dedup"
    ~count:300 (tuples_gen 3) (fun tuples ->
      let cols = cols_of_tuples tuples 3 in
      let kept =
        match Col_ops.dedup_keep_first cols with
        | None -> List.mapi (fun i _ -> i) tuples
        | Some rows -> Array.to_list rows
      in
      let seen = Relation.Tuple_tbl.create 16 in
      let expect =
        List.filter
          (fun t ->
            if Relation.Tuple_tbl.mem seen t then false
            else begin
              Relation.Tuple_tbl.add seen t ();
              true
            end)
          tuples
        |> List.length
      in
      List.length kept = expect)

(* [tuples], deduplicated (the columnar sort promises determinism only
   on set-semantic input: class-equal rows would tie), sort as
   [List.sort Tuple.compare] does, byte for byte. *)
let sorts_like_boxed tuples arity =
  let cols = cols_of_tuples tuples arity in
  let cols =
    match Col_ops.dedup_keep_first cols with
    | None -> cols
    | Some rows -> Col_ops.gather cols rows
  in
  let sorted = Col_ops.sort_rows_canonical cols in
  let resolve_rows cs =
    List.init (Col_ops.nrows cs) (fun i ->
        Array.init (Array.length cs) (fun c -> Value_pool.resolve cs.(c).(i)))
  in
  let got = resolve_rows sorted in
  let expect = List.sort Tuple.compare (resolve_rows cols) in
  List.length got = List.length expect
  && List.for_all2
       (fun a b -> String.equal (Tuple.to_string a) (Tuple.to_string b))
       got expect

let prop_sort_matches_boxed =
  QCheck2.Test.make ~name:"sort_rows_canonical = boxed Tuple.compare sort"
    ~count:300
    QCheck2.Gen.(list_size (int_range 0 200) (tuple_gen 3))
    (fun tuples -> sorts_like_boxed tuples 3)

(* Column-0 cells with integer sort keys: negatives, Int k beside Float k,
   the signed zeros, a key range far wider than one radix digit, ints
   around 2^53 (whose float images collide) and at the ends of the int
   range, nulls and bools.  Floats stay small: a float image beside a
   large int would make Value.compare intransitive. *)
let int_key_value st =
  match Random.State.int st 20 with
  | 0 | 1 -> Value.Null
  | 2 -> Value.Bool (Random.State.bool st)
  | 3 | 4 | 5 | 6 | 7 -> Value.Int (Random.State.int st 81 - 40)
  | 8 | 9 | 10 | 11 -> Value.Float (float_of_int (Random.State.int st 81 - 40))
  | 12 -> if Random.State.bool st then Value.Float 0. else Value.Float (-0.)
  | 13 | 14 -> Value.Int (Random.State.full_int st 2_000_000_001 - 1_000_000_000)
  | 15 | 16 -> Value.Int ((1 lsl 53) + Random.State.int st 7 - 3)
  | _ -> (
      match Random.State.int st 4 with
      | 0 -> Value.Int max_int
      | 1 -> Value.Int (max_int - 1)
      | 2 -> Value.Int min_int
      | _ -> Value.Int (min_int + 1))

(* 65 to 3000 shuffled rows (past the 64 sorted runs the merge path
   takes) whose column 0 repeats under different later columns; one case
   in four gets a single fallback row with a non-integral column 0. *)
let prop_sort_int_keys =
  QCheck2.Test.make ~name:"sort_rows_canonical = boxed sort on integer keys"
    ~count:100 ~print:string_of_int QCheck2.Gen.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 65 + Random.State.int st 2936 in
      let later () = QCheck2.Gen.generate1 ~rand:st value_gen in
      let tuples =
        List.init n (fun _ -> [| int_key_value st; later (); later () |])
      in
      let tuples =
        if Random.State.int st 4 > 0 then tuples
        else
          let at = Random.State.int st n in
          let odd =
            [| Value.Float infinity; Value.Float nan; Value.Float neg_infinity |].(
              Random.State.int st 3)
          in
          List.mapi (fun i t -> if i = at then [| odd; t.(1); t.(2) |] else t) tuples
      in
      sorts_like_boxed tuples 3)

let prop_masks =
  QCheck2.Test.make ~name:"nonnull_masks bit c iff column c non-null" ~count:300
    (tuples_gen 4) (fun tuples ->
      let cols = cols_of_tuples tuples 4 in
      let masks = Col_ops.nonnull_masks cols in
      List.for_all
        (fun i ->
          let t = List.nth tuples i in
          let expect =
            Array.to_list t
            |> List.mapi (fun c v -> if Value.is_null v then 0 else 1 lsl c)
            |> List.fold_left ( lor ) 0
          in
          masks.(i) = expect)
        (List.init (List.length tuples) Fun.id))

(* --- 2a. algebra operators against boxed oracles --- *)

let rel_of name cols tuples =
  Relation.create ~allow_all_null:true name (Schema.make name cols) tuples

(* Same schema and the same rows, each rendered byte for byte (so Int 1
   may not stand in for Float 1.0), in the same order. *)
let same a b =
  Schema.equal (Relation.schema a) (Relation.schema b)
  && String.equal (render a) (render b)

(* The same, up to row order — for joins, whose match order is the hash
   kernel's business. *)
let same_rows a b =
  let rows r = List.map Tuple.to_string (List.sort Tuple.compare (Relation.tuples r)) in
  Schema.equal (Relation.schema a) (Relation.schema b) && rows a = rows b

(* Boxed oracles: tuple-at-a-time definitions of each operator. *)
let boxed_union a b =
  Relation.create ~allow_all_null:true (Relation.name a) (Relation.schema a)
    (Relation.tuples a @ Relation.tuples b)

let boxed_project attrs r =
  let schema = Relation.schema r in
  let positions = List.map (Schema.index schema) attrs in
  Relation.create ~allow_all_null:true (Relation.name r) (Schema.project schema attrs)
    (List.map (fun t -> Tuple.project t positions) (Relation.tuples r))

let boxed_pad r schema =
  let src = Relation.schema r in
  let mapping = Array.map (Schema.index_opt src) (Schema.attrs schema) in
  Relation.create ~allow_all_null:true (Relation.name r) schema
    (List.map
       (fun t -> Array.map (function Some i -> t.(i) | None -> Value.Null) mapping)
       (Relation.tuples r))

let boxed_join p l r = Algebra.select p (Algebra.product l r)

(* Rows of [side] that match nothing in [matched] on [positions], padded
   with nulls on the far side. *)
let dangling ~side ~positions ~matched ~pad =
  Relation.tuples side
  |> List.filter (fun t ->
         not
           (List.exists
              (fun m ->
                Tuple.equal t (Tuple.project m positions))
              (Relation.tuples matched)))
  |> List.map pad

let boxed_outer_join ~full p l r =
  let inner = boxed_join p l r in
  let nl = Schema.arity (Relation.schema l) and nr = Schema.arity (Relation.schema r) in
  let l_dangling =
    dangling ~side:l ~positions:(List.init nl Fun.id) ~matched:inner
      ~pad:(fun t -> Tuple.concat t (Tuple.nulls nr))
  in
  let r_dangling =
    if not full then []
    else
      dangling ~side:r ~positions:(List.init nr (fun i -> nl + i)) ~matched:inner
        ~pad:(fun t -> Tuple.concat (Tuple.nulls nl) t)
  in
  Relation.create ~allow_all_null:true "oracle" (Relation.schema inner)
    (Relation.tuples inner @ l_dangling @ r_dangling)

let pair_rel_gen =
  QCheck2.Gen.(
    let* l = tuples_gen 2 in
    let* r = tuples_gen 2 in
    return
      ( rel_of "L" [ "a"; "b" ] (List.map Tuple.make (List.map Array.to_list l)),
        rel_of "R" [ "c"; "d" ] (List.map Tuple.make (List.map Array.to_list r)) ))

let join_pred = Predicate.eq_cols (Attr.make "L" "b") (Attr.make "R" "c")

let prop_parity_join =
  QCheck2.Test.make ~name:"join parity" ~count:200 pair_rel_gen (fun (l, r) ->
      same_rows (Algebra.join join_pred l r) (boxed_join join_pred l r))

let prop_parity_left_outer =
  QCheck2.Test.make ~name:"left_outer_join parity" ~count:200 pair_rel_gen
    (fun (l, r) ->
      same_rows
        (Algebra.left_outer_join join_pred l r)
        (boxed_outer_join ~full:false join_pred l r))

let prop_parity_full_outer =
  QCheck2.Test.make ~name:"full_outer_join parity" ~count:200 pair_rel_gen
    (fun (l, r) ->
      same_rows
        (Algebra.full_outer_join join_pred l r)
        (boxed_outer_join ~full:true join_pred l r))

let prop_parity_outer_union =
  QCheck2.Test.make ~name:"outer_union parity" ~count:200 pair_rel_gen
    (fun (l, r) ->
      let merged =
        Schema.of_attrs
          (Array.to_list (Schema.attrs (Relation.schema l))
          @ Array.to_list (Schema.attrs (Relation.schema r)))
      in
      same (Algebra.outer_union l r)
        (boxed_union (boxed_pad l merged) (boxed_pad r merged)))

let prop_parity_union_project_pad =
  QCheck2.Test.make ~name:"union/project/pad parity" ~count:200 (tuples_gen 3)
    (fun tuples ->
      let ts = List.map (fun a -> Tuple.make (Array.to_list a)) tuples in
      let r = rel_of "L" [ "a"; "b"; "c" ] ts in
      let r2 = rel_of "L" [ "a"; "b"; "c" ] (List.rev ts) in
      let attrs = [ Attr.make "L" "a"; Attr.make "L" "c" ] in
      let wide = Schema.make "L" [ "a"; "b"; "c"; "extra" ] in
      same (Algebra.union r r2) (boxed_union r r2)
      && same (Algebra.project attrs r) (boxed_project attrs r)
      && same (Algebra.project [] r) (boxed_project [] r)
      && same (Algebra.pad r wide) (boxed_pad r wide))

(* --- 2b. min-union / subsumption against the pairwise oracle --- *)

let sparse_rel_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* rows = int_range 0 60 in
    let st = Random.State.make [| seed |] in
    let ts =
      Synth.Gen_db.sparse_tuples st ~rows ~arity:4 ~null_prob:0.5 ~domain:3
      |> List.filter (fun t -> not (Tuple.all_null t))
      |> List.map (fun a -> Tuple.make (Array.to_list a))
    in
    return (rel_of "S" [ "a"; "b"; "c"; "d" ] ts))

let boxed_sweep r =
  Relation.create ~allow_all_null:true (Relation.name r) (Relation.schema r)
    (Fulldisj.Min_union.remove_subsumed_naive (Relation.tuples r))

let prop_parity_sweep =
  QCheck2.Test.make ~name:"Min_union.sweep parity (and minimal)" ~count:300
    sparse_rel_gen (fun r ->
      let swept = Fulldisj.Min_union.sweep r in
      same swept (boxed_sweep r)
      && Fulldisj.Min_union.is_minimal (Relation.tuples swept))

let prop_parity_minimize =
  QCheck2.Test.make ~name:"Min_union.minimize parity" ~count:200 sparse_rel_gen
    (fun r -> same (Fulldisj.Min_union.minimize r) (boxed_sweep r))

(* --- 2c. full disjunction against the naive oracle: compute vs
   compute_relation, jobs, cache, incremental delta --- *)

let instance_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* n = int_range 2 4 in
    let* rows = int_range 1 12 in
    return (seed, n, rows))

let make_instance (seed, n, rows) =
  let st = Random.State.make [| seed |] in
  Synth.Gen_graph.random_tree st ~n ~rows ~null_prob:0.3 ~orphan_prob:0.25 ()

let naive_relation db g =
  Fulldisj.Full_disjunction.to_relation
    (Fulldisj.Full_disjunction.naive (Fulldisj.Source.of_db db) g)

let prop_parity_fulldisj =
  QCheck2.Test.make ~name:"compute_relation = naive = to_relation compute"
    ~count:60 instance_gen (fun params ->
      let inst = make_instance params in
      let db = inst.Synth.Gen_graph.db in
      let src = Fulldisj.Source.of_db db in
      let g = inst.Synth.Gen_graph.graph in
      let direct =
        Fulldisj.Full_disjunction.compute_relation src g
          ~categories:(Querygraph.Subgraphs.connected_node_sets g)
      in
      let via_compute =
        Fulldisj.Full_disjunction.to_relation (Fulldisj.Full_disjunction.compute src g)
      in
      same direct (naive_relation db g) && same direct via_compute)

let prop_parity_jobs_cache =
  QCheck2.Test.make ~name:"D(G) parity across jobs x cache"
    ~count:30 instance_gen (fun params ->
      let inst = make_instance params in
      let g = inst.Synth.Gen_graph.graph in
      let db = inst.Synth.Gen_graph.db in
      let eval ~jobs ~cached =
        let ctx =
          if cached then Clio.Eval_ctx.create ~jobs db
          else Clio.Eval_ctx.with_jobs (Clio.Eval_ctx.transient db) jobs
        in
        Fulldisj.Full_disjunction.to_relation (Clio.Eval_ctx.data_associations ctx g)
      in
      let reference = naive_relation db g in
      List.for_all
        (fun (jobs, cached) -> same reference (eval ~jobs ~cached))
        [ (1, false); (1, true); (4, false); (4, true) ])

let prop_parity_delta =
  QCheck2.Test.make ~name:"incremental delta parity with compute and naive"
    ~count:30 instance_gen (fun params ->
      let inst = make_instance params in
      let g = inst.Synth.Gen_graph.graph in
      let db = inst.Synth.Gen_graph.db in
      (* Insert one fresh tuple into the first base relation, then compare
         delta repair against from-scratch compute and the naive oracle. *)
      let base = (List.hd (Qgraph.nodes g)).Qgraph.base in
      let r = Database.get db base in
      let arity = Array.length (Schema.attrs (Relation.schema r)) in
      let fresh =
        Tuple.make (List.init arity (fun c -> Value.Int (900_000 + c)))
      in
      let old = Fulldisj.Full_disjunction.compute (Fulldisj.Source.of_db db) g in
      let db' = Database.insert_tuples db base [ fresh ] in
      let src' = Fulldisj.Source.of_db db' in
      let changed = [ (base, [ fresh ]) ] in
      let repaired =
        Fulldisj.Full_disjunction.to_relation
          (Fulldisj.Full_disjunction.delta src' g ~old ~changed)
      in
      same repaired
        (Fulldisj.Full_disjunction.to_relation
           (Fulldisj.Full_disjunction.compute src' g))
      && same repaired (naive_relation db' g))

let () =
  Alcotest.run "columnar"
    [
      ( "value-pool",
        [
          qtest prop_intern_roundtrip;
          qtest prop_class_is_value_equal;
          qtest prop_compare_resolved_sign;
          qtest prop_sort_key_consistent;
          Alcotest.test_case "null is id 0" `Quick unit_null_is_zero;
          Alcotest.test_case "classes non-trivial after aliasing" `Quick
            unit_classes_nontrivial_after_alias;
        ] );
      ( "col-ops",
        [
          qtest prop_buckets_exact;
          Alcotest.test_case "buckets sparse fallback" `Quick unit_buckets_sparse;
          qtest prop_dedup_matches_boxed;
          qtest prop_sort_matches_boxed;
          qtest prop_sort_int_keys;
          qtest prop_masks;
        ] );
      ( "algebra-parity",
        [
          qtest prop_parity_join;
          qtest prop_parity_left_outer;
          qtest prop_parity_full_outer;
          qtest prop_parity_outer_union;
          qtest prop_parity_union_project_pad;
        ] );
      ( "fulldisj-parity",
        [
          qtest prop_parity_sweep;
          qtest prop_parity_minimize;
          qtest prop_parity_fulldisj;
          qtest prop_parity_jobs_cache;
          qtest prop_parity_delta;
        ] );
    ]
