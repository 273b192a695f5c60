(* Tests for lib/engine: the versioned, memoized evaluation engine.

   Units: database version monotonicity, canonical graph keys across
   isomorphic constructions, version-keyed invalidation after a relation
   replacement, LRU eviction order under a tight byte budget, and
   FJ-tier sharing between a graph and its induced subgraphs.

   Property: evaluating through a caching context is observationally
   identical to evaluating uncached, across randomized
   evaluate/mutate-db/evaluate interleavings on lib/synth instances. *)

open Relational
module Qgraph = Querygraph.Qgraph
module Eval_ctx = Engine.Eval_ctx
module Eval_cache = Engine.Eval_cache
module Graph_key = Engine.Graph_key

let qtest t = QCheck_alcotest.to_alcotest ~long:false t
let tc = Alcotest.test_case
let v_int i = Value.Int i
let mk name cols rows = Relation.create name (Schema.make name cols) rows

(* --- database versioning --- *)

let test_version_monotonic () =
  Alcotest.(check int) "empty is version 0" 0 (Database.version Database.empty);
  let r = mk "R" [ "a" ] [ Tuple.make [ v_int 1 ] ] in
  let s = mk "S" [ "b" ] [ Tuple.make [ v_int 2 ] ] in
  let db1 = Database.add Database.empty r in
  let db2 = Database.add db1 s in
  Alcotest.(check bool) "add bumps" true (Database.version db1 > 0);
  Alcotest.(check bool) "add bumps again" true
    (Database.version db2 > Database.version db1);
  let r' = mk "R" [ "a" ] [ Tuple.make [ v_int 7 ] ] in
  let db3 = Database.replace db2 r' in
  Alcotest.(check bool) "replace bumps" true
    (Database.version db3 > Database.version db2);
  Alcotest.(check bool) "replace swaps contents" true
    (Relation.equal_contents r' (Database.get db3 "R"));
  (* The original is untouched (databases are immutable values). *)
  Alcotest.(check bool) "original unchanged" true
    (Relation.equal_contents r (Database.get db2 "R"))

let test_replace_unknown_rejected () =
  let r = mk "R" [ "a" ] [] in
  Alcotest.check_raises "unknown relation"
    (Invalid_argument "Database.replace: unknown relation R") (fun () ->
      ignore (Database.replace Database.empty r))

(* --- canonical graph keys --- *)

let eq r1 c1 r2 c2 = Predicate.eq_cols (Attr.make r1 c1) (Attr.make r2 c2)

let test_key_insertion_order () =
  let g1 =
    Qgraph.make
      [ ("A", "A"); ("B", "B") ]
      [ ("A", "B", eq "A" "x" "B" "y") ]
  in
  let g2 =
    Qgraph.make
      [ ("B", "B"); ("A", "A") ]
      [ ("A", "B", eq "A" "x" "B" "y") ]
  in
  Alcotest.(check bool) "node order irrelevant" true
    (Graph_key.equal (Graph_key.of_graph g1) (Graph_key.of_graph g2))

let test_key_edge_orientation () =
  let g1 =
    Qgraph.make [ ("A", "A"); ("B", "B") ] [ ("A", "B", eq "A" "x" "B" "y") ]
  in
  let g2 =
    Qgraph.make [ ("A", "A"); ("B", "B") ] [ ("B", "A", eq "A" "x" "B" "y") ]
  in
  Alcotest.(check bool) "edge orientation irrelevant" true
    (Graph_key.equal (Graph_key.of_graph g1) (Graph_key.of_graph g2))

let test_key_conjunct_order () =
  let p = eq "A" "x" "B" "y" and q = eq "A" "u" "B" "v" in
  let g1 =
    Qgraph.make [ ("A", "A"); ("B", "B") ] [ ("A", "B", Predicate.And (p, q)) ]
  in
  let g2 =
    Qgraph.make [ ("A", "A"); ("B", "B") ] [ ("A", "B", Predicate.And (q, p)) ]
  in
  Alcotest.(check bool) "conjunct order irrelevant" true
    (Graph_key.equal (Graph_key.of_graph g1) (Graph_key.of_graph g2))

let test_key_distinguishes () =
  let g1 =
    Qgraph.make [ ("A", "A"); ("B", "B") ] [ ("A", "B", eq "A" "x" "B" "y") ]
  in
  let g2 =
    Qgraph.make [ ("A", "A"); ("B", "B") ] [ ("A", "B", eq "A" "x" "B" "z") ]
  in
  let g3 =
    Qgraph.make
      [ ("A", "A"); ("B2", "B") ]
      [ ("A", "B2", eq "A" "x" "B2" "y") ]
  in
  Alcotest.(check bool) "different predicate" false
    (Graph_key.equal (Graph_key.of_graph g1) (Graph_key.of_graph g2));
  Alcotest.(check bool) "different alias" false
    (Graph_key.equal (Graph_key.of_graph g1) (Graph_key.of_graph g3))

(* --- a small concrete instance for the cache tests --- *)

let chain_instance ?(rows = 60) () =
  Synth.Gen_graph.chain
    (Random.State.make [| 91 |])
    ~n:3 ~rows ~null_prob:0.2 ~orphan_prob:0.2 ()

let identity_mapping (inst : Synth.Gen_graph.instance) =
  let aliases = Qgraph.aliases inst.Synth.Gen_graph.graph in
  Clio.Mapping.make ~graph:inst.Synth.Gen_graph.graph ~target:"T"
    ~target_cols:(List.map (fun a -> "c_" ^ a) aliases)
    ~correspondences:
      (List.map
         (fun a -> Clio.Correspondence.identity ("c_" ^ a) (Attr.make a "id"))
         aliases)
    ()

(* --- relation storage: a D(G) miss reads the stored columns --- *)

(* The database stores its base relations as interned columns, and the
   aliases of a graph (a copy of R2 among them) share them, so evaluating
   D(G) from scratch again at the same version interns no row. *)
let test_repeated_miss_interns_nothing () =
  let inst = chain_instance () in
  let fk c p = Predicate.eq_cols (Attr.make c ("fk_" ^ p)) (Attr.make p "id") in
  let g =
    Qgraph.make
      [ ("R1", "R1"); ("R2", "R2"); ("R3", "R3"); ("R2b", "R2") ]
      [
        ("R1", "R2", fk "R1" "R2");
        ("R2", "R3", fk "R2" "R3");
        ( "R1",
          "R2b",
          Predicate.eq_cols (Attr.make "R1" "fk_R2") (Attr.make "R2b" "id") );
      ]
  in
  let ctx = Eval_ctx.transient inst.Synth.Gen_graph.db in
  let was_enabled = Obs.enabled () in
  Obs.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Obs.disable ())
    (fun () ->
      let interned () = Obs.Counter.value Obs.Names.relation_rows_interned in
      let dg () =
        Relation.tuples
          (Fulldisj.Full_disjunction.to_relation (Eval_ctx.data_associations ctx g))
      in
      let first = dg () in
      let before = interned () in
      let again = dg () in
      Alcotest.(check int) "no row interned" before (interned ());
      Alcotest.(check bool) "same D(G)" true
        (List.equal Tuple.equal first again))

(* --- version invalidation --- *)

let test_version_invalidation () =
  let inst = chain_instance () in
  let db = inst.Synth.Gen_graph.db in
  let ctx = Eval_ctx.create ~kb:inst.Synth.Gen_graph.kb db in
  let m = identity_mapping inst in
  let before = Clio.Mapping_eval.eval ctx m in
  let cache = Option.get (Eval_ctx.cache ctx) in
  Alcotest.(check bool) "cache populated" true (Eval_cache.entry_count cache > 0);
  (* Hit path returns the same thing. *)
  Alcotest.(check bool) "hit = miss result" true
    (Relation.equal_contents before (Clio.Mapping_eval.eval ctx m));
  (* Mutate R1: drop half its tuples; the context carries the cache over. *)
  let r1 = Database.get db "R1" in
  let r1' =
    Relation.create "R1" (Relation.schema r1)
      (List.filteri (fun i _ -> i mod 2 = 0) (Relation.tuples r1))
  in
  let ctx' = Eval_ctx.with_db ctx (Database.replace db r1') in
  (* Nothing of the new version is cached yet... *)
  Alcotest.(check bool) "new version starts cold" false
    (Eval_cache.mem_dg cache ~version:(Eval_ctx.version ctx')
       (Graph_key.of_graph m.Clio.Mapping.graph));
  (* ...and evaluation agrees with an uncached context on the new db. *)
  let after = Clio.Mapping_eval.eval ctx' m in
  let reference = Clio.Mapping_eval.eval (Eval_ctx.transient (Eval_ctx.db ctx')) m in
  Alcotest.(check bool) "post-mutation result is fresh" true
    (Relation.equal_contents after reference);
  Alcotest.(check bool) "old version still served" true
    (Relation.equal_contents before (Clio.Mapping_eval.eval ctx m))

(* --- LRU eviction order --- *)

let test_lru_eviction_order () =
  let rel i =
    mk (Printf.sprintf "E%d" i) [ "a"; "b" ]
      (List.init 8 (fun j -> Tuple.make [ v_int i; v_int j ]))
  in
  let key i =
    Graph_key.of_graph
      (Qgraph.singleton ~alias:(Printf.sprintf "E%d" i) ~base:"E")
  in
  (* Measure one entry's footprint, then budget for two and a half. *)
  let probe = Eval_cache.create () in
  Eval_cache.add_fj probe ~version:0 (key 0) (rel 0);
  let per_entry = Eval_cache.bytes_resident probe in
  let cache = Eval_cache.create ~byte_budget:(per_entry * 5 / 2) () in
  Eval_cache.add_fj cache ~version:0 (key 1) (rel 1);
  Eval_cache.add_fj cache ~version:0 (key 2) (rel 2);
  (* Touch 1 so 2 becomes the least recently used... *)
  ignore (Eval_cache.find_fj cache ~version:0 (key 1));
  Eval_cache.add_fj cache ~version:0 (key 3) (rel 3);
  Alcotest.(check bool) "LRU entry evicted" false
    (Eval_cache.mem_fj cache ~version:0 (key 2));
  Alcotest.(check bool) "recently used survives" true
    (Eval_cache.mem_fj cache ~version:0 (key 1));
  Alcotest.(check bool) "new entry resident" true
    (Eval_cache.mem_fj cache ~version:0 (key 3));
  Alcotest.(check bool) "budget respected" true
    (Eval_cache.bytes_resident cache <= Eval_cache.byte_budget cache)

let test_cache_rejects_bad_budget () =
  Alcotest.check_raises "zero budget"
    (Invalid_argument "Eval_cache.create: byte_budget must be > 0")
    (fun () -> ignore (Eval_cache.create ~byte_budget:0 ()))

(* --- FJ sharing between a graph and its induced subgraphs --- *)

let test_subgraph_sharing () =
  let inst = chain_instance () in
  let g = inst.Synth.Gen_graph.graph in
  let ctx = Eval_ctx.create ~kb:inst.Synth.Gen_graph.kb inst.Synth.Gen_graph.db in
  ignore (Eval_ctx.data_associations ctx g);
  let cache = Option.get (Eval_ctx.cache ctx) in
  (* Rebuild the induced R1-R2 subgraph from scratch; D(G) of the full
     chain must already have materialized its F(J) under the same key. *)
  let e = Option.get (Qgraph.find_edge g "R1" "R2") in
  let sub =
    Qgraph.make
      [ ("R1", "R1"); ("R2", "R2") ]
      [ ("R1", "R2", e.Qgraph.pred) ]
  in
  Alcotest.(check bool) "induced subgraph F(J) shared" true
    (Eval_cache.mem_fj cache ~version:(Eval_ctx.version ctx)
       (Graph_key.of_graph sub))

(* --- property: cached = uncached under mutation interleavings --- *)

let interleaving_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100000 in
    let* n = int_range 2 4 in
    let* rows = int_range 1 15 in
    (* Each step: true = mutate the database, false = evaluate+compare. *)
    let* ops = list_size (int_range 2 6) bool in
    return (seed, n, rows, ops))

let mutate_db step db =
  (* Rotate the tuples of one relation and drop the head: changes both
     contents and cardinality, forcing a visible difference if any stale
     cache entry were served. *)
  let rels = Database.relations db in
  let victim = List.nth rels (step mod List.length rels) in
  let name = Relation.name victim in
  let tuples =
    match Relation.tuples victim with [] -> [] | _ :: rest -> rest
  in
  Database.replace db (Relation.create name (Relation.schema victim) tuples)

let prop_cached_equals_uncached =
  QCheck2.Test.make ~name:"cached = uncached across mutate interleavings"
    ~count:40 interleaving_gen (fun (seed, n, rows, ops) ->
      let st = Random.State.make [| seed |] in
      let inst =
        Synth.Gen_graph.random_tree st ~n ~rows ~null_prob:0.25
          ~orphan_prob:0.25 ()
      in
      let m = identity_mapping inst in
      let step (ctx, i, ok) mutate =
        if not ok then (ctx, i, false)
        else if mutate then (Eval_ctx.with_db ctx (mutate_db i (Eval_ctx.db ctx)), i + 1, ok)
        else
          let cached = Clio.Mapping_eval.eval ctx m in
          let uncached =
            Clio.Mapping_eval.eval (Eval_ctx.transient (Eval_ctx.db ctx)) m
          in
          let exs = Clio.Mapping_eval.examples ctx m in
          let exs' =
            Clio.Mapping_eval.examples (Eval_ctx.transient (Eval_ctx.db ctx)) m
          in
          ( ctx,
            i + 1,
            Relation.equal_contents cached uncached
            && List.length exs = List.length exs' )
      in
      let ctx0 = Eval_ctx.create ~kb:inst.Synth.Gen_graph.kb inst.Synth.Gen_graph.db in
      (* Always end with a comparison so every interleaving is checked. *)
      let _, _, ok = List.fold_left step (ctx0, 0, true) (ops @ [ false ]) in
      ok)

let prop_algorithms_agree_cached =
  QCheck2.Test.make ~name:"cached eval agrees across algorithms" ~count:30
    QCheck2.Gen.(
      let* seed = int_range 0 100000 in
      let* n = int_range 2 4 in
      let* rows = int_range 1 12 in
      return (seed, n, rows))
    (fun (seed, n, rows) ->
      let st = Random.State.make [| seed |] in
      let inst =
        Synth.Gen_graph.random_tree st ~n ~rows ~null_prob:0.25
          ~orphan_prob:0.25 ()
      in
      let m = identity_mapping inst in
      let ctx = Eval_ctx.create ~kb:inst.Synth.Gen_graph.kb inst.Synth.Gen_graph.db in
      let g = m.Clio.Mapping.graph in
      let rel = Fulldisj.Full_disjunction.to_relation in
      (* The served D(G) (a miss, then a hit) against the naive oracle run
         through the same context's F(J) tier — which must not skew it —
         and the outer-join cascade over the bare database. *)
      let served = rel (Clio.Mapping_eval.data_associations ctx m) in
      let naive = rel (Fulldisj.Full_disjunction.naive (Eval_ctx.source ctx) g) in
      let outerjoin =
        rel
          (Fulldisj.Outerjoin_plan.full_disjunction
             (Fulldisj.Source.of_db inst.Synth.Gen_graph.db)
             g)
      in
      Relation.equal_contents served naive
      && Relation.equal_contents served outerjoin
      && Relation.equal_contents served
           (rel (Clio.Mapping_eval.data_associations ctx m))
      && Relation.equal_contents (Clio.Mapping_eval.eval ctx m)
           (Clio.Mapping_eval.eval (Eval_ctx.transient inst.Synth.Gen_graph.db) m))

let () =
  Alcotest.run "engine"
    [
      ( "version",
        [
          tc "monotonic" `Quick test_version_monotonic;
          tc "replace unknown" `Quick test_replace_unknown_rejected;
          tc "invalidation" `Quick test_version_invalidation;
        ] );
      ( "graph_key",
        [
          tc "insertion order" `Quick test_key_insertion_order;
          tc "edge orientation" `Quick test_key_edge_orientation;
          tc "conjunct order" `Quick test_key_conjunct_order;
          tc "distinguishes" `Quick test_key_distinguishes;
        ] );
      ( "cache",
        [
          tc "lru eviction order" `Quick test_lru_eviction_order;
          tc "bad budget" `Quick test_cache_rejects_bad_budget;
          tc "subgraph sharing" `Quick test_subgraph_sharing;
          tc "repeated miss interns nothing" `Quick test_repeated_miss_interns_nothing;
        ] );
      ( "properties",
        [ qtest prop_cached_equals_uncached; qtest prop_algorithms_agree_cached ] );
    ]
