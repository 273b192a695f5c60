(* Tests for incremental D(G)/F(J) maintenance (the delta-evaluation path).

   Units: free vs repaired promotion through the recorded delta chain
   (counter-visible), no promotion across a replace, peek neutrality (a promotion probe
   must not perturb LRU recency), and the fresh recency + bytes accounting
   of promoted entries.

   Properties: after random insert/replace sequences, evaluation through
   an incremental caching context is byte-identical to from-scratch
   evaluation — D(G) association lists (also checked against the naive
   and outer-join oracles), F(J) tuple arrays, rendered illustrations,
   and the illustrations [Workspace.add_tuples] evolves, against a
   cache-less replay — at jobs 1 and 4. *)

open Relational
module Qgraph = Querygraph.Qgraph
module Eval_ctx = Engine.Eval_ctx
module Eval_cache = Engine.Eval_cache
module Graph_key = Engine.Graph_key

let qtest t = QCheck_alcotest.to_alcotest ~long:false t
let tc = Alcotest.test_case
let v_int i = Value.Int i
let mk name cols rows = Relation.create name (Schema.make name cols) rows

let chain_instance ?(rows = 40) () =
  Synth.Gen_graph.chain
    (Random.State.make [| 97 |])
    ~n:3 ~rows ~null_prob:0.2 ~orphan_prob:0.2 ()

(* A genuinely fresh R1 tuple: id far beyond the generator's key space,
   the FK landing on an existing R2 id. *)
let fresh_r1_tuple i = [| v_int (1_000_000 + i); Value.String "x"; v_int 0 |]

let counter name = Obs.Metrics.value name

let with_counters f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let subgraph g a b =
  let e = Option.get (Qgraph.find_edge g a b) in
  Qgraph.make [ (a, a); (b, b) ] [ (a, b, e.Qgraph.pred) ]

(* Same scheme, same rows in the same order, and the same coverage row by
   row. *)
let assocs_equal (x : Fulldisj.Full_disjunction.result)
    (y : Fulldisj.Full_disjunction.result) =
  let rows r = Relation.tuples_array r.Fulldisj.Full_disjunction.rows in
  Schema.attrs x.Fulldisj.Full_disjunction.scheme
  = Schema.attrs y.Fulldisj.Full_disjunction.scheme
  && Array.length (rows x) = Array.length (rows y)
  && Array.for_all2 Tuple.equal (rows x) (rows y)
  && Array.length x.Fulldisj.Full_disjunction.coverage
     = Array.length y.Fulldisj.Full_disjunction.coverage
  && Array.for_all2 Fulldisj.Coverage.equal x.Fulldisj.Full_disjunction.coverage
       y.Fulldisj.Full_disjunction.coverage

(* D(G) by the two independent algorithms the served path is held to. *)
let oracles db g =
  let src = Fulldisj.Source.of_db db in
  [
    Fulldisj.Full_disjunction.naive src g;
    Fulldisj.Outerjoin_plan.full_disjunction src g;
  ]

(* --- free promotion: the graph touches none of the changed relations --- *)

let test_promotion_free () =
  with_counters (fun () ->
      let inst = chain_instance () in
      let g23 = subgraph inst.Synth.Gen_graph.graph "R2" "R3" in
      let ctx =
        Eval_ctx.create ~kb:inst.Synth.Gen_graph.kb inst.Synth.Gen_graph.db
      in
      let before = Eval_ctx.data_associations ctx g23 in
      let db' =
        Database.insert_tuples (Eval_ctx.db ctx) "R1" [ fresh_r1_tuple 0 ]
      in
      let ctx' = Eval_ctx.with_db ctx db' in
      let free0 = counter "cache.promote.dg.free" in
      let after = Eval_ctx.data_associations ctx' g23 in
      Alcotest.(check int)
        "one free dg promotion" (free0 + 1)
        (counter "cache.promote.dg.free");
      Alcotest.(check bool) "promoted result unchanged" true
        (assocs_equal before after);
      (* The promoted entry is resident at the new version. *)
      let cache = Option.get (Eval_ctx.cache ctx') in
      Alcotest.(check bool) "entry resident at new version" true
        (Eval_cache.mem_dg cache
           ~version:(Eval_ctx.version ctx')
           (Graph_key.of_graph g23)))

(* --- repaired promotion: insert-only delta into a touched base --- *)

let test_promotion_repaired () =
  with_counters (fun () ->
      let inst = chain_instance () in
      let g = inst.Synth.Gen_graph.graph in
      let ctx =
        Eval_ctx.create ~kb:inst.Synth.Gen_graph.kb inst.Synth.Gen_graph.db
      in
      ignore (Eval_ctx.data_associations ctx g);
      let db' =
        Database.insert_tuples (Eval_ctx.db ctx) "R1" [ fresh_r1_tuple 1 ]
      in
      let ctx' = Eval_ctx.with_db ctx db' in
      let rep0 = counter "cache.promote.dg.repaired" in
      let repaired = Eval_ctx.data_associations ctx' g in
      Alcotest.(check int)
        "one repaired dg promotion" (rep0 + 1)
        (counter "cache.promote.dg.repaired");
      let scratch = Eval_ctx.data_associations (Eval_ctx.transient db') g in
      Alcotest.(check bool) "repair = from-scratch, byte-identical" true
        (assocs_equal repaired scratch))

let test_promotion_fj_repaired () =
  with_counters (fun () ->
      let inst = chain_instance () in
      let g12 = subgraph inst.Synth.Gen_graph.graph "R1" "R2" in
      let ctx =
        Eval_ctx.create ~kb:inst.Synth.Gen_graph.kb inst.Synth.Gen_graph.db
      in
      ignore (Eval_ctx.full_associations ctx g12);
      let db' =
        Database.insert_tuples (Eval_ctx.db ctx) "R1" [ fresh_r1_tuple 2 ]
      in
      let ctx' = Eval_ctx.with_db ctx db' in
      let memoized = Eval_ctx.full_associations ctx' g12 in
      let scratch = Eval_ctx.full_associations (Eval_ctx.transient db') g12 in
      Alcotest.(check bool) "F(J) after insert = from-scratch, same order" true
        (Relation.tuples memoized = Relation.tuples scratch))

(* --- replace starts a new lineage: nothing before it is promoted --- *)

let test_replace_new_lineage () =
  with_counters (fun () ->
      let inst = chain_instance () in
      let g = inst.Synth.Gen_graph.graph in
      let ctx =
        Eval_ctx.create ~kb:inst.Synth.Gen_graph.kb inst.Synth.Gen_graph.db
      in
      ignore (Eval_ctx.data_associations ctx g);
      (* A pure superset: as an insert it would be repaired. *)
      let r2 = Database.get (Eval_ctx.db ctx) "R2" in
      let extra = Array.copy (List.hd (Relation.tuples r2)) in
      extra.(0) <- v_int 2_000_000;
      let r2' =
        Relation.create "R2" (Relation.schema r2) (Relation.tuples r2 @ [ extra ])
      in
      let ctx' = Eval_ctx.with_db ctx (Database.replace (Eval_ctx.db ctx) r2') in
      let promotions () =
        List.map counter
          [
            "cache.promote.dg.free";
            "cache.promote.dg.repaired";
          ]
      in
      let before = promotions () in
      let after = Eval_ctx.data_associations ctx' g in
      Alcotest.(check (list int)) "no D(G) promotion" before
        (promotions ());
      let scratch = Eval_ctx.data_associations (Eval_ctx.transient (Eval_ctx.db ctx')) g in
      Alcotest.(check bool) "recomputed result correct" true
        (assocs_equal after scratch))

(* --- peek neutrality and promoted-entry recency --- *)

let lru_rel i =
  mk (Printf.sprintf "E%d" i) [ "a"; "b" ]
    (List.init 8 (fun j -> Tuple.make [ v_int i; v_int j ]))

let lru_key i =
  Graph_key.of_graph
    (Qgraph.singleton ~alias:(Printf.sprintf "E%d" i) ~base:"E")

let test_peek_does_not_touch_recency () =
  let probe = Eval_cache.create () in
  Eval_cache.add_fj probe ~version:0 (lru_key 0) (lru_rel 0);
  let per_entry = Eval_cache.bytes_resident probe in
  let cache = Eval_cache.create ~byte_budget:(per_entry * 5 / 2) () in
  Eval_cache.add_fj cache ~version:0 (lru_key 1) (lru_rel 1);
  Eval_cache.add_fj cache ~version:0 (lru_key 2) (lru_rel 2);
  (* Unlike find_fj (see the engine LRU test), peeking entry 1 must NOT
     refresh its recency: it stays least recently used and is evicted. *)
  Alcotest.(check bool) "peek hits" true
    (Option.is_some (Eval_cache.peek_fj cache ~version:0 (lru_key 1)));
  Eval_cache.add_fj cache ~version:0 (lru_key 3) (lru_rel 3);
  Alcotest.(check bool) "peeked entry still evicted first" false
    (Eval_cache.mem_fj cache ~version:0 (lru_key 1));
  Alcotest.(check bool) "other entry survives" true
    (Eval_cache.mem_fj cache ~version:0 (lru_key 2))

let test_promoted_entry_recency_and_bytes () =
  (* Replay the engine's promotion sequence by hand: peek at the ancestor
     version, re-add at the new one.  The promoted entry must be counted
     in bytes_resident and carry fresh recency (evicted last). *)
  let probe = Eval_cache.create () in
  Eval_cache.add_fj probe ~version:0 (lru_key 0) (lru_rel 0);
  let per_entry = Eval_cache.bytes_resident probe in
  let cache = Eval_cache.create ~byte_budget:(per_entry * 5 / 2) () in
  Eval_cache.add_fj cache ~version:0 (lru_key 1) (lru_rel 1);
  Eval_cache.add_fj cache ~version:0 (lru_key 2) (lru_rel 2);
  let bytes_before = Eval_cache.bytes_resident cache in
  let payload = Option.get (Eval_cache.peek_fj cache ~version:0 (lru_key 1)) in
  Eval_cache.add_fj cache ~version:1 (lru_key 1) payload;
  (* Three entries exceed the 2.5-entry budget: the oldest (key 1 at the
     ancestor version — peek ticked nothing) is evicted, the promoted copy
     is the most recent and survives, and the books balance. *)
  Alcotest.(check bool) "ancestor copy evicted" false
    (Eval_cache.mem_fj cache ~version:0 (lru_key 1));
  Alcotest.(check bool) "promoted copy resident" true
    (Eval_cache.mem_fj cache ~version:1 (lru_key 1));
  Alcotest.(check int) "bytes accounted for promoted entry" bytes_before
    (Eval_cache.bytes_resident cache);
  Alcotest.(check bool) "budget respected" true
    (Eval_cache.bytes_resident cache <= Eval_cache.byte_budget cache)

(* --- property: incremental = from-scratch across mutation sequences --- *)

let identity_mapping (inst : Synth.Gen_graph.instance) =
  let aliases = Qgraph.aliases inst.Synth.Gen_graph.graph in
  Clio.Mapping.make ~graph:inst.Synth.Gen_graph.graph ~target:"T"
    ~target_cols:(List.map (fun a -> "c_" ^ a) aliases)
    ~correspondences:
      (List.map
         (fun a -> Clio.Correspondence.identity ("c_" ^ a) (Attr.make a "id"))
         aliases)
    ()

(* A one-node mapping over the graph's first alias. *)
let first_node (inst : Synth.Gen_graph.instance) =
  let a = List.hd (Qgraph.aliases inst.Synth.Gen_graph.graph) in
  Clio.Mapping.make
    ~graph:(Qgraph.singleton ~alias:a ~base:(Qgraph.base_of inst.Synth.Gen_graph.graph a))
    ~target:"T" ~target_cols:[ "c_" ^ a ]
    ~correspondences:[ Clio.Correspondence.identity ("c_" ^ a) (Attr.make a "id") ]
    ()

(* Mutations: mostly insert-only steps (the repairable case), sometimes a
   duplicate insert (must be a version no-op) or a tuple removal (a
   replace, which starts a new lineage and forces a recompute).  [salt]
   keeps generated ids genuinely fresh across steps. *)
let mutation db (op, rel_idx, salt) =
  let rels = Database.relations db in
  let victim = List.nth rels (rel_idx mod List.length rels) in
  let name = Relation.name victim in
  match op mod 6 with
  | 5 ->
      let tuples =
        match Relation.tuples victim with [] -> [] | _ :: rest -> rest
      in
      `Replace (Relation.create name (Relation.schema victim) tuples)
  | 4 -> (
      match Relation.tuples victim with
      | [] -> `Insert (name, [])
      | t :: _ -> `Insert (name, [ t ]))
  | _ ->
      let arity = Schema.arity (Relation.schema victim) in
      let fresh =
        Array.init arity (fun c ->
            if c = 0 then v_int (500_000 + salt) else v_int (salt mod 7))
      in
      `Insert (name, [ fresh ])

let apply_mutation db = function
  | `Replace r -> Database.replace db r
  | `Insert (_, []) -> db
  | `Insert (name, tuples) -> Database.insert_tuples db name tuples

let parity_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100000 in
    let* n = int_range 2 4 in
    let* rows = int_range 1 12 in
    let* jobs = oneofl [ 1; 4 ] in
    let* ops =
      frequency
        [
          (4, list_size (int_range 1 5) (pair (int_range 0 5) (int_range 0 3)));
          (* Fresh inserts only, enough to push steps out of the
             changelog window while promotion keeps walking it. *)
          ( 1,
            list_size
              (int_range (Database.history_window + 1)
                 (Database.history_window + 8))
              (pair (int_range 0 3) (int_range 0 3)) );
        ]
    in
    return (seed, n, rows, jobs, ops))

let prop_incremental_equals_scratch =
  QCheck2.Test.make ~name:"incremental = from-scratch after random mutations"
    ~count:30 parity_gen (fun (seed, n, rows, jobs, ops) ->
      let st = Random.State.make [| seed |] in
      let inst =
        Synth.Gen_graph.random_tree st ~n ~rows ~null_prob:0.25
          ~orphan_prob:0.25 ()
      in
      let g = inst.Synth.Gen_graph.graph in
      let m = identity_mapping inst in
      let ctx0 =
        Eval_ctx.create ~jobs ~kb:inst.Synth.Gen_graph.kb
          inst.Synth.Gen_graph.db
      in
      let check ctx =
        let db = Eval_ctx.db ctx in
        let scratch = Eval_ctx.transient db in
        (* Served D(G) = from-scratch = the oracles, coverage and order
           included. *)
        let served = Eval_ctx.data_associations ctx g in
        List.for_all (assocs_equal served)
          (Eval_ctx.data_associations scratch g :: oracles db g)
        (* F(J) of the full graph, tuple-for-tuple. *)
        && Relation.tuples (Eval_ctx.full_associations ctx g)
           = Relation.tuples (Eval_ctx.full_associations scratch g)
        (* Illustrations render byte-identically. *)
        &&
        let scheme r = r.Fulldisj.Full_disjunction.scheme in
        Clio.Illustration.render
          ~scheme:(scheme (Eval_ctx.data_associations ctx g))
          (Clio.illustrate ctx m)
        = Clio.Illustration.render
            ~scheme:(scheme (Eval_ctx.data_associations scratch g))
            (Clio.illustrate (Eval_ctx.create ~no_cache:true ~kb:(Eval_ctx.kb ctx) db) m)
      in
      (* Workspaces over the same inserts: one on an incremental caching
         context, one replayed without a cache.  Two entries, so
         [add_tuples] evolves more than the active illustration. *)
      let workspace ctx =
        let m0 = first_node inst in
        Clio.Workspace.offer (Clio.Workspace.create ctx m0) [ m0; m ]
      in
      let same_illustrations ws replay =
        List.equal
          (fun (a : Clio.Workspace.entry) (b : Clio.Workspace.entry) ->
            List.equal Clio.Example.equal a.Clio.Workspace.illustration
              b.Clio.Workspace.illustration)
          (Clio.Workspace.entries ws) (Clio.Workspace.entries replay)
      in
      let ws0 =
        workspace
          (Eval_ctx.create ~jobs ~kb:inst.Synth.Gen_graph.kb
             inst.Synth.Gen_graph.db)
      in
      let replay0 =
        workspace
          (Eval_ctx.create ~no_cache:true ~kb:inst.Synth.Gen_graph.kb
             inst.Synth.Gen_graph.db)
      in
      (* Warm, mutate step by step, re-checking parity after every step.
         The workspaces take the inserts only. *)
      check ctx0
      && same_illustrations ws0 replay0
      &&
      let _, _, _, ok =
        List.fold_left
          (fun (ctx, ws, replay, ok) (op, rel_idx) ->
            if not ok then (ctx, ws, replay, false)
            else
              let salt = Database.version (Eval_ctx.db ctx) * 13 in
              let change = mutation (Eval_ctx.db ctx) (op, rel_idx, salt) in
              let ctx =
                Eval_ctx.with_db ctx (apply_mutation (Eval_ctx.db ctx) change)
              in
              let ws, replay =
                match change with
                | `Insert (name, tuples) ->
                    ( Clio.Workspace.add_tuples ws name tuples,
                      Clio.Workspace.add_tuples replay name tuples )
                | `Replace _ -> (ws, replay)
              in
              (ctx, ws, replay, check ctx && same_illustrations ws replay))
          (ctx0, ws0, replay0, true) ops
      in
      ok)

(* --- property: D(G) results are already sets --- *)

(* A result's rows are built without a dedup pass, which is sound only if
   no D(G) algorithm emits two associations equal under [Value.equal].
   Adversarial twists make equal values differ in representation: ints
   turned into floats (Int 1 vs Float 1.0, 0 vs -0.), payload strings
   turned into NaN or infinity, and every relation carrying a float copy
   of each of its rows that set semantics must fold away. *)
let twist st = function
  | Value.Int 0 when Random.State.bool st -> Value.Float (-0.)
  | Value.Int i when Random.State.int st 3 = 0 -> Value.Float (float_of_int i)
  | Value.String _ when Random.State.int st 4 = 0 ->
      Value.Float (if Random.State.bool st then Float.nan else Float.infinity)
  | v -> v

let as_floats =
  Array.map (function Value.Int i -> Value.Float (float_of_int i) | v -> v)

let twisted_db st db =
  List.fold_left
    (fun db r ->
      let tuples = Relation.tuples r in
      Database.replace db
        (Relation.create (Relation.name r) (Relation.schema r)
           (List.map (Array.map (twist st)) tuples @ List.map as_floats tuples)))
    db (Database.relations db)

let to_relation_is_exact (r : Fulldisj.Full_disjunction.result) =
  let rel = Fulldisj.Full_disjunction.to_relation r in
  let deduped =
    Relation.create ~allow_all_null:true "D(G)" r.Fulldisj.Full_disjunction.scheme
      (Relation.tuples r.Fulldisj.Full_disjunction.rows)
  in
  (* The served relation is the cached rows themselves, not a copy. *)
  rel == r.Fulldisj.Full_disjunction.rows
  && Relation.cardinality rel = Relation.cardinality deduped
  && Array.length r.Fulldisj.Full_disjunction.coverage = Relation.cardinality rel
  && String.equal (Render.relation rel) (Render.relation deduped)

let prop_associations_are_sets =
  QCheck2.Test.make
    ~name:"D(G) associations are a set: to_relation = deduplicating build"
    ~count:40 parity_gen (fun (seed, n, rows, jobs, _) ->
      let st = Random.State.make [| seed |] in
      let inst =
        Synth.Gen_graph.random_tree st ~n ~rows ~null_prob:0.25
          ~orphan_prob:0.25 ()
      in
      let g = inst.Synth.Gen_graph.graph in
      let db = twisted_db st inst.Synth.Gen_graph.db in
      let ctx =
        Eval_ctx.create ~jobs ~kb:inst.Synth.Gen_graph.kb db
      in
      let all_exact ctx =
        List.for_all to_relation_is_exact
          (Eval_ctx.data_associations ctx g :: oracles (Eval_ctx.db ctx) g)
      in
      (* Fresh rows into the first base, each with its float twin in the
         same batch: the cached result above is then repaired through
         [Full_disjunction.delta]. *)
      let base = (List.hd (Qgraph.nodes g)).Qgraph.base in
      let fresh =
        match Relation.tuples (Database.get db base) with
        | [] -> []
        | t :: _ ->
            let tup = Array.map (twist st) t in
            tup.(0) <- v_int 900_000;
            [ tup; as_floats tup ]
      in
      with_counters (fun () ->
          all_exact ctx
          &&
          let repaired0 = counter "cache.promote.dg.repaired" in
          let ctx' =
            Eval_ctx.with_db ctx (Database.insert_tuples db base fresh)
          in
          all_exact ctx'
          && (fresh = [] || counter "cache.promote.dg.repaired" > repaired0)))

let () =
  Alcotest.run "incremental"
    [
      ( "promotion",
        [
          tc "free" `Quick test_promotion_free;
          tc "repaired" `Quick test_promotion_repaired;
          tc "fj repaired" `Quick test_promotion_fj_repaired;
          tc "replace starts a new lineage" `Quick test_replace_new_lineage;
        ] );
      ( "cache",
        [
          tc "peek neutrality" `Quick test_peek_does_not_touch_recency;
          tc "promoted recency+bytes" `Quick test_promoted_entry_recency_and_bytes;
        ] );
      ( "properties",
        [
          qtest prop_incremental_equals_scratch;
          qtest prop_associations_are_sets;
        ] );
    ]
