(* Tests for lib/par and the parallel evaluation paths.

   Units: Par.map/mapi/init/iter order and exception determinism,
   including nested batches on one pool.

   Properties: parallel evaluation is observationally identical to
   sequential — full disjunction, walk enumeration, and chase occurrence
   scans all return the same values (same order) at jobs ∈ {1, 2, 4},
   on the paper's instance and on random lib/synth instances.

   Stress: one shared Eval_cache hammered from 4 domains — every hit
   returns the exact relation inserted (no torn entries) and the
   hit/miss counters account for every lookup.

   Signals: the domains both executors spawn block SIGTERM and SIGINT,
   so those signals reach the main thread. *)

open Relational
open Clio
module Qgraph = Querygraph.Qgraph
module Eval_ctx = Engine.Eval_ctx
module Eval_cache = Engine.Eval_cache
module Graph_key = Engine.Graph_key

let tc = Alcotest.test_case
let qtest t = QCheck_alcotest.to_alcotest ~long:false t

(* Shared pools: created once, reused across tests (and shut down by
   lib/par's at_exit, like any CLI run). *)
let pool2 = Par.get_pool ~jobs:2
let pool4 = Par.get_pool ~jobs:4

(* --- combinator units --- *)

let test_map_order () =
  let xs = List.init 200 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "map = List.map" (List.map f xs) (Par.map ?pool:pool4 f xs);
  Alcotest.(check (list int)) "jobs=2 too" (List.map f xs) (Par.map ?pool:pool2 f xs);
  Alcotest.(check (list int)) "empty" [] (Par.map ?pool:pool4 f []);
  Alcotest.(check (list int)) "singleton" [ 10 ] (Par.map ?pool:pool4 f [ 3 ])

let test_mapi_order () =
  let xs = List.init 150 (fun i -> i * 7) in
  let f i x = (i, x + 1) in
  Alcotest.(check (list (pair int int)))
    "mapi = List.mapi" (List.mapi f xs)
    (Par.mapi ?pool:pool4 f xs)

let test_init_chunked () =
  let n = 1000 in
  let f i = (i * 3) - 1 in
  Alcotest.(check (array int)) "init = Array.init" (Array.init n f) (Par.init ?pool:pool4 n f);
  Alcotest.(check (array int)) "empty" [||] (Par.init ?pool:pool4 0 f)

let test_iter_runs_all () =
  let n = 300 in
  let hits = Array.make n 0 in
  (* Distinct slots per item: no two domains touch the same cell. *)
  Par.iter ?pool:pool4 (fun i -> hits.(i) <- hits.(i) + 1) (List.init n Fun.id);
  Alcotest.(check bool) "every item ran once" true (Array.for_all (( = ) 1) hits)

let test_exception_lowest_index () =
  let xs = List.init 100 Fun.id in
  let f x = if x mod 7 = 3 then failwith (string_of_int x) else x in
  (* Items 3, 10, 17, … all raise; the reported one must be index 3
     regardless of which domain hit which item first. *)
  for _ = 1 to 10 do
    Alcotest.check_raises "lowest index wins" (Failure "3") (fun () ->
        ignore (Par.map ?pool:pool4 f xs))
  done

let test_nested_map () =
  (* An item that itself fans out on the same pool: the inner batch can
     always be drained by its caller, so this must not deadlock. *)
  let expected = List.init 8 (fun i -> List.init 50 (fun j -> (i * 50) + j)) in
  let got =
    Par.map ?pool:pool4
      (fun i -> Par.map ?pool:pool4 (fun j -> (i * 50) + j) (List.init 50 Fun.id))
      (List.init 8 Fun.id)
  in
  Alcotest.(check (list (list int))) "nested map" expected got

(* --- parallel ≡ sequential on the paper instance --- *)

let fd_equal (a : Fulldisj.Full_disjunction.result) (b : Fulldisj.Full_disjunction.result) =
  Schema.equal a.Fulldisj.Full_disjunction.scheme b.Fulldisj.Full_disjunction.scheme
  && List.equal Tuple.equal
       (Relation.tuples a.Fulldisj.Full_disjunction.rows)
       (Relation.tuples b.Fulldisj.Full_disjunction.rows)
  && Array.for_all2 Fulldisj.Coverage.equal a.Fulldisj.Full_disjunction.coverage
       b.Fulldisj.Full_disjunction.coverage

let paper_ctx ~jobs =
  Eval_ctx.create ~jobs ~kb:Paperdata.Figure1.kb Paperdata.Figure1.database

let test_paper_walk_parity () =
  let m = Paperdata.Running.mapping_g1 in
  let descs ctx =
    Op_walk.data_walk_any_start ctx m ~goal:"PhoneDir" ~max_len:2 ()
    |> List.map (fun (a : Op_walk.alternative) -> a.Op_walk.description)
  in
  let seq = descs (paper_ctx ~jobs:1) in
  Alcotest.(check bool) "walk finds alternatives" true (seq <> []);
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d walk order" jobs)
        seq
        (descs (paper_ctx ~jobs)))
    [ 2; 4 ]

let test_paper_chase_parity () =
  let m = Paperdata.Running.mapping_g1 in
  let occs ctx = Op_chase.occurrences ctx m (Value.String "002") in
  let seq = occs (paper_ctx ~jobs:1) in
  Alcotest.(check bool) "chase finds occurrences" true (seq <> []);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d chase occurrences" jobs)
        true
        (seq = occs (paper_ctx ~jobs)))
    [ 2; 4 ]

let test_paper_fd_parity () =
  let g = Paperdata.Running.mapping.Mapping.graph in
  let seq = Eval_ctx.data_associations (paper_ctx ~jobs:1) g in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d full disjunction" jobs)
        true
        (fd_equal seq (Eval_ctx.data_associations (paper_ctx ~jobs) g)))
    [ 2; 4 ]

let test_paper_illustration_parity () =
  let m = Paperdata.Running.mapping in
  let render ctx =
    let ill = Clio.illustrate ctx m in
    let fd = Mapping_eval.data_associations ctx m in
    Illustration.render ~scheme:fd.Fulldisj.Full_disjunction.scheme ill
  in
  let seq = render (paper_ctx ~jobs:1) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d illustration" jobs)
        seq
        (render (paper_ctx ~jobs)))
    [ 2; 4 ]

(* --- parallel ≡ sequential on random synthetic instances --- *)

let instance_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100000 in
    let* n = int_range 2 4 in
    let* rows = int_range 1 15 in
    let* jobs = oneofl [ 2; 4 ] in
    return (seed, n, rows, jobs))

let make_instance (seed, n, rows) =
  let st = Random.State.make [| seed |] in
  Synth.Gen_graph.random_tree st ~n ~rows ~null_prob:0.25 ~orphan_prob:0.25 ()

let identity_mapping (inst : Synth.Gen_graph.instance) =
  let aliases = Qgraph.aliases inst.Synth.Gen_graph.graph in
  Mapping.make ~graph:inst.Synth.Gen_graph.graph ~target:"T"
    ~target_cols:(List.map (fun a -> "c_" ^ a) aliases)
    ~correspondences:
      (List.map (fun a -> Correspondence.identity ("c_" ^ a) (Attr.make a "id")) aliases)
    ()

let prop_fd_parallel_eq_sequential =
  QCheck2.Test.make ~name:"full disjunction parallel = sequential" ~count:40 instance_gen
    (fun (seed, n, rows, jobs) ->
      let inst = make_instance (seed, n, rows) in
      let g = inst.Synth.Gen_graph.graph in
      let ctx jobs = Eval_ctx.create ~jobs inst.Synth.Gen_graph.db in
      fd_equal
        (Eval_ctx.data_associations (ctx 1) g)
        (Eval_ctx.data_associations (ctx jobs) g))

let prop_chase_parallel_eq_sequential =
  QCheck2.Test.make ~name:"chase occurrences parallel = sequential" ~count:40 instance_gen
    (fun (seed, n, rows, jobs) ->
      let inst = make_instance (seed, n, rows) in
      let m = identity_mapping inst in
      (* Keep only the first node mapped so other relations are chaseable. *)
      let m =
        match Qgraph.aliases inst.Synth.Gen_graph.graph with
        | first :: _ :: _ ->
            Mapping.make
              ~graph:(Qgraph.singleton ~alias:first ~base:first)
              ~target:"T" ~target_cols:[ "c" ]
              ~correspondences:[ Correspondence.identity "c" (Attr.make first "id") ]
              ()
        | _ -> m
      in
      let occs jobs =
        Op_chase.occurrences (Eval_ctx.create ~jobs inst.Synth.Gen_graph.db) m (Value.Int 0)
      in
      occs 1 = occs jobs)

let prop_illustration_parallel_eq_sequential =
  QCheck2.Test.make ~name:"illustration parallel = sequential" ~count:25 instance_gen
    (fun (seed, n, rows, jobs) ->
      let inst = make_instance (seed, n, rows) in
      let m = identity_mapping inst in
      let ill jobs =
        let ctx = Eval_ctx.create ~jobs inst.Synth.Gen_graph.db in
        let fd = Mapping_eval.data_associations ctx m in
        Illustration.render ~scheme:fd.Fulldisj.Full_disjunction.scheme
          (Clio.illustrate ctx m)
      in
      String.equal (ill 1) (ill jobs))

(* --- shared Eval_cache under 4 domains --- *)

let test_cache_stress () =
  Obs.Counter.reset_all ();
  let cache = Eval_cache.create () in
  let db = Paperdata.Figure1.database in
  let version = Database.version db in
  let keyed =
    List.map
      (fun (alias, rel) ->
        ( Graph_key.of_graph (Qgraph.singleton ~alias ~base:alias),
          Database.get db rel ))
      [
        ("Children", "Children");
        ("Parents", "Parents");
        ("PhoneDir", "PhoneDir");
        ("SBPS", "SBPS");
        ("XmasBar", "XmasBar");
      ]
  in
  let arr = Array.of_list keyed in
  let n_keys = Array.length arr in
  let lookups = 400 in
  (* All four domains look up and (re)insert a small overlapping key set
     against one shared cache.  A hit must return the exact relation that
     was inserted for that key — a torn entry would surface here. *)
  Par.iter ?pool:pool4
    (fun i ->
      let key, rel = arr.(i mod n_keys) in
      match Eval_cache.find_fj cache ~version key with
      | Some r ->
          if not (Relation.equal_contents r rel) then
            failwith "torn cache entry"
      | None -> Eval_cache.add_fj cache ~version key rel)
    (List.init lookups Fun.id);
  let hits = Obs.Counter.value Obs.Names.cache_fj_hits in
  let misses = Obs.Counter.value Obs.Names.cache_fj_misses in
  Alcotest.(check int) "every lookup counted exactly once" lookups (hits + misses);
  Alcotest.(check bool) "some lookups hit" true (hits > 0);
  Alcotest.(check int) "one entry per key, duplicates replaced" n_keys
    (Eval_cache.entry_count cache);
  (* Sequential re-read: every key resolves to its own relation. *)
  Array.iter
    (fun (key, rel) ->
      match Eval_cache.find_fj cache ~version key with
      | Some r ->
          Alcotest.(check bool) "entry intact" true (Relation.equal_contents r rel)
      | None -> Alcotest.fail "entry missing after stress")
    arr;
  Obs.Counter.reset_all ()

(* --- signal masks of spawned domains --- *)

let blocks_shutdown_signals mask =
  List.mem Sys.sigterm mask && List.mem Sys.sigint mask

(* A task on a spawned domain reads its own mask; both executors' domains
   must block SIGTERM and SIGINT, so the kernel hands those signals to
   the main thread instead of a worker idling in a condition wait. *)
let test_workers_block_signals () =
  let mask = Atomic.make None in
  let w = Par.Workers.create ~workers:2 ~notify:ignore in
  Par.Workers.submit w ~shard:1 (fun () ->
      Atomic.set mask (Some (Unix.sigprocmask SIG_BLOCK [])));
  Par.Workers.drain w;
  Par.Workers.shutdown w;
  match Atomic.get mask with
  | Some m ->
      Alcotest.(check bool) "worker blocks SIGTERM and SIGINT" true
        (blocks_shutdown_signals m)
  | None -> Alcotest.fail "task did not run"

let test_pool_blocks_signals () =
  let mask = Atomic.make None in
  let p = Par.Pool.create ~jobs:2 in
  (* [submit] only enqueues: the pool's one spawned domain runs it. *)
  Par.Pool.submit p (fun () ->
      Atomic.set mask (Some (Unix.sigprocmask SIG_BLOCK [])));
  Par.Pool.shutdown p;
  (match Atomic.get mask with
  | Some m ->
      Alcotest.(check bool) "pool domain blocks SIGTERM and SIGINT" true
        (blocks_shutdown_signals m)
  | None -> Alcotest.fail "task did not run");
  Alcotest.(check bool) "the caller's mask is unchanged" false
    (List.mem Sys.sigterm (Unix.sigprocmask SIG_BLOCK []))

let () =
  Alcotest.run "par"
    [
      ( "combinators",
        [
          tc "map order" `Quick test_map_order;
          tc "mapi order" `Quick test_mapi_order;
          tc "init chunked" `Quick test_init_chunked;
          tc "iter runs all" `Quick test_iter_runs_all;
          tc "exception lowest index" `Quick test_exception_lowest_index;
          tc "nested map" `Quick test_nested_map;
        ] );
      ( "parity-paper",
        [
          tc "walk alternatives" `Quick test_paper_walk_parity;
          tc "chase occurrences" `Quick test_paper_chase_parity;
          tc "full disjunction" `Quick test_paper_fd_parity;
          tc "illustration" `Quick test_paper_illustration_parity;
        ] );
      ( "parity-synth",
        [
          qtest prop_fd_parallel_eq_sequential;
          qtest prop_chase_parallel_eq_sequential;
          qtest prop_illustration_parallel_eq_sequential;
        ] );
      ("cache", [ tc "4-domain stress" `Quick test_cache_stress ]);
      ( "signals",
        [
          tc "worker domains block SIGTERM and SIGINT" `Quick
            test_workers_block_signals;
          tc "pool domains block SIGTERM and SIGINT" `Quick test_pool_blocks_signals;
        ] );
    ]
