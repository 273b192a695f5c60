(* The branching version store: DAG semantics (branch/checkout/merge/
   diff/log), failed-commit atomicity, history-truncation promotion
   safety, the qcheck linearization property (every branch equals a
   linear replay of its own history, byte-for-byte, across jobs and
   cache configurations), and snapshot round-trips. *)

open Relational
module Store = Version.Store
module Op = Version.Op
module Scenario = Version.Scenario

let tc = Alcotest.test_case
let qtest t = QCheck_alcotest.to_alcotest ~long:false t
let spec = Scenario.Chain { n = 3; rows = 60; seed = 11 }

(* The test resolver mirrors the server's: the memoized scenario state
   wrapped in a context that either shares one cache or caches nothing. *)
let resolver ?cache ?(jobs = 1) () sc =
  let db, kb, mapping = Scenario.resolve sc in
  let ctx =
    match cache with
    | Some cache -> Clio.Eval_ctx.create ~cache ~jobs ~kb db
    | None -> Clio.Eval_ctx.create ~no_cache:true ~jobs ~kb db
  in
  Clio.Workspace.create ctx mapping

let make_store ?cache ?jobs () =
  Store.create ~resolve:(resolver ?cache ?jobs ()) spec

(* Chain relations: R1 (id, p0, fk_R2), R2 (id, p0, fk_R3), R3 (id, p0).
   Keys start far above the generator's key space so inserts never
   collide with generated rows. *)
let insert_r1 k tag =
  Op.Insert
    {
      relation = "R1";
      rows = [ [| Value.Int (1_000_000 + k); Value.String tag; Value.Int k |] ];
    }

let insert_r3 k tag =
  Op.Insert
    { relation = "R3"; rows = [ [| Value.Int (3_000_000 + k); Value.String tag |] ] }

(* The evaluation the cache economics are about: D(G) of the branch's
   active mapping, rendered and hashed.  Any stale promotion shows up
   here as a digest mismatch. *)
let dg_digest ws =
  let ctx = Clio.Workspace.ctx ws in
  let mapping = (Clio.Workspace.active ws).Clio.Workspace.mapping in
  let rel =
    Fulldisj.Full_disjunction.to_relation
      (Clio.Mapping_eval.data_associations ctx mapping)
  in
  Render.digest rel

let with_temp_dir f =
  let dir = Filename.temp_file "clio_test_version" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () -> f dir)

(* --- DAG semantics --- *)

let test_branch_checkout () =
  let t = make_store () in
  Alcotest.(check (list string)) "trunk only" [ Store.main ] (Store.branch_names t);
  ignore (Store.commit t ~branch:Store.main (insert_r1 1 "a"));
  ignore (Store.branch t ~from:Store.main "fork");
  Alcotest.(check (list string)) "creation order, main first"
    [ Store.main; "fork" ] (Store.branch_names t);
  Alcotest.(check bool) "has_branch" true (Store.has_branch t "fork");
  Alcotest.(check bool) "has_branch negative" false (Store.has_branch t "nope");
  (* A fresh fork is the same state: branching shares values. *)
  Alcotest.(check string) "fork digest = trunk digest"
    (Store.state_digest t Store.main)
    (Store.state_digest t "fork");
  let trunk_before = Store.state_digest t Store.main in
  ignore (Store.commit t ~branch:"fork" (insert_r1 2 "b"));
  Alcotest.(check bool) "fork diverges" true
    (Store.state_digest t "fork" <> trunk_before);
  Alcotest.(check string) "trunk unmoved by the fork's commit" trunk_before
    (Store.state_digest t Store.main);
  (* Branch-taking operations reject unknown/duplicate/empty names. *)
  (match Store.checkout t "nope" with
  | _ -> Alcotest.fail "unknown branch should raise"
  | exception Invalid_argument _ -> ());
  (match Store.branch t ~from:Store.main "fork" with
  | _ -> Alcotest.fail "duplicate branch name should raise"
  | exception Invalid_argument _ -> ());
  match Store.branch t ~from:Store.main "" with
  | _ -> Alcotest.fail "empty branch name should raise"
  | exception Invalid_argument _ -> ()

let test_log_oldest_first () =
  let t = make_store () in
  ignore (Store.commit t ~branch:Store.main (insert_r1 1 "a"));
  ignore (Store.commit t ~branch:Store.main (insert_r1 2 "b"));
  let log = Store.log t ~branch:Store.main in
  Alcotest.(check (list int)) "cids ascending from the root" [ 0; 1; 2 ]
    (List.map (fun c -> c.Store.cid) log);
  (match List.map (fun c -> c.Store.kind) log with
  | [ Store.Root; Store.Apply _; Store.Apply _ ] -> ()
  | _ -> Alcotest.fail "trunk log should be Root then Applies");
  ignore (Store.branch t ~from:Store.main "fork");
  ignore (Store.commit t ~branch:"fork" (insert_r1 3 "c"));
  let flog = Store.log t ~branch:"fork" in
  Alcotest.(check bool) "fork log runs back through the trunk" true
    (List.map (fun c -> c.Store.cid) flog = [ 0; 1; 2; 3; 4 ]);
  (match (List.nth flog 3).Store.kind with
  | Store.Branch_from "main" -> ()
  | _ -> Alcotest.fail "fork point recorded as Branch_from main");
  Alcotest.(check int) "linear_ops drops structural commits" 3
    (List.length (Store.linear_ops t ~branch:"fork"))

let test_failed_commit_atomic () =
  let t = make_store () in
  ignore (Store.commit t ~branch:Store.main (insert_r1 1 "a"));
  let head = Store.head t Store.main in
  let digest = Store.state_digest t Store.main in
  let commits = List.length (Store.log t ~branch:Store.main) in
  (match
     Store.commit t ~branch:Store.main
       (Op.Insert { relation = "Nope"; rows = [ [| Value.Int 1 |] ] })
   with
  | _ -> Alcotest.fail "unknown relation should raise"
  | exception Invalid_argument _ -> ());
  (match
     Store.commit t ~branch:Store.main
       (Op.Offer { start = "R3"; goal = "R1"; max_len = 1 })
   with
  | _ -> Alcotest.fail "no walks within 1 step should raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "head unchanged" head (Store.head t Store.main);
  Alcotest.(check string) "state unchanged" digest (Store.state_digest t Store.main);
  Alcotest.(check int) "nothing recorded" commits
    (List.length (Store.log t ~branch:Store.main))

let test_merge_and_lca () =
  let t = make_store () in
  ignore (Store.commit t ~branch:Store.main (insert_r1 1 "a"));
  let fork_point = Store.head t Store.main in
  ignore (Store.branch t ~from:Store.main "fork");
  ignore (Store.commit t ~branch:"fork" (insert_r1 2 "b"));
  ignore (Store.commit t ~branch:"fork" (insert_r3 3 "c"));
  Alcotest.(check (option int)) "lca is the fork point" (Some fork_point)
    (Store.lca t ~a:Store.main ~b:"fork");
  let main_head = Store.head t Store.main in
  Alcotest.(check int) "merge folds the fork's two inserts" 2
    (Store.merge t ~into:Store.main ~from:"fork");
  Alcotest.(check bool) "merge recorded" true (Store.head t Store.main > main_head);
  (match (List.nth (Store.log t ~branch:Store.main) 2).Store.kind with
  | Store.Merge { from_branch = "fork"; inserts } ->
      Alcotest.(check int) "both relations materialized" 2 (List.length inserts)
  | _ -> Alcotest.fail "merge commit should materialize the inserts");
  (* Only example tuples cross: the merged trunk now evaluates exactly
     like the fork (mapping state never diverged). *)
  Alcotest.(check string) "merged trunk D(G) = fork D(G)"
    (dg_digest (Store.checkout t "fork"))
    (dg_digest (Store.checkout t Store.main));
  (* Idempotent, and a no-op merge records nothing. *)
  let head = Store.head t Store.main in
  Alcotest.(check int) "second merge is a no-op" 0
    (Store.merge t ~into:Store.main ~from:"fork");
  Alcotest.(check int) "no-op merge records nothing" head (Store.head t Store.main);
  (* Back-merging picks up only the trunk's ancestry-marking merge
     commit: zero new rows (structural dedup), and once recorded the
     next back-merge is a true no-op. *)
  Alcotest.(check int) "back-merge finds nothing new" 0
    (Store.merge t ~into:"fork" ~from:Store.main);
  let fork_head = Store.head t "fork" in
  Alcotest.(check int) "second back-merge records nothing" 0
    (Store.merge t ~into:"fork" ~from:Store.main);
  Alcotest.(check int) "fork head settled" fork_head (Store.head t "fork")

let test_diff () =
  let t = make_store () in
  let fork_point = Store.head t Store.main in
  ignore (Store.branch t ~from:Store.main "fork");
  ignore (Store.commit t ~branch:"fork" (insert_r1 1 "a"));
  ignore (Store.commit t ~branch:"fork" (insert_r1 2 "b"));
  let d = Store.diff t ~a:"fork" ~b:Store.main in
  let get k =
    match List.assoc_opt k d with
    | Some v -> v
    | None -> Alcotest.failf "diff lacks %s" k
  in
  Alcotest.(check (float 0.)) "lca" (float_of_int fork_point) (get "diff.lca_cid");
  Alcotest.(check bool) "a is ahead" true (get "diff.ahead" >= 2.);
  Alcotest.(check (float 0.)) "b is not" 0. (get "diff.behind");
  Alcotest.(check (float 0.)) "row drift on R1" 2. (get "diff.rows.R1");
  Alcotest.(check bool) "zero-drift relations omitted" false
    (List.mem_assoc "diff.rows.R3" d)

(* --- satellite: history truncation never yields a stale promotion --- *)

(* A shared cache warmed on the trunk, then a fork whose insert run
   overflows the delta-history window: the trunk version drops out of
   the fork's recorded ancestry, so promotion must fall back to
   recomputation — the fork's D(G) has to match a cache-less linear
   replay byte-for-byte, and the eviction counter has to show the window
   actually overflowed. *)
let test_truncated_history_not_stale () =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  let cache = Engine.Eval_cache.create () in
  let t = make_store ~cache () in
  ignore (dg_digest (Store.checkout t Store.main));
  ignore (Store.branch t ~from:Store.main "fork");
  for k = 1 to Database.history_window + 4 do
    ignore (Store.commit t ~branch:"fork" (insert_r1 k (Printf.sprintf "t%d" k)))
  done;
  Alcotest.(check bool) "the history window actually overflowed" true
    (Obs.Counter.value Obs.Names.delta_history_evicted > 0);
  let warm = dg_digest (Store.checkout t "fork") in
  let replay =
    List.fold_left Op.apply
      (resolver () spec)
      (Store.linear_ops t ~branch:"fork")
  in
  Alcotest.(check string) "shared-cache fork = cache-less replay" (dg_digest replay)
    warm

(* --- property: branches linearize, across jobs and cache configs --- *)

(* A random interleaving of branch / commit / merge actions, interpreted
   over one shared-cache store.  Individual ops may be invalid for the
   state they meet (offer with no walks, select of a missing entry,
   delete of the last entry) — those commits raise and, per the store's
   atomicity contract, record nothing, so the interpreter skips them. *)
type action =
  | A_branch of int
  | A_insert of int * int
  | A_offer of int
  | A_rotate of int
  | A_select of int * int
  | A_delete of int * int
  | A_confirm of int
  | A_merge of int * int

let action_gen =
  QCheck2.Gen.(
    let* tag = int_range 0 8 in
    let* a = int_range 0 1000 in
    let* b = int_range 0 1000 in
    return
      (match tag with
      | 0 -> A_branch a
      | 1 | 2 -> A_insert (a, b)
      | 3 -> A_offer a
      | 4 -> A_rotate a
      | 5 -> A_select (a, b)
      | 6 -> A_delete (a, b)
      | 7 -> A_confirm a
      | _ -> A_merge (a, b)))

let script_gen = QCheck2.Gen.(list_size (int_range 3 10) action_gen)

let run_script t script =
  let pick i = List.nth (Store.branch_names t) (i mod List.length (Store.branch_names t)) in
  let try_commit branch op =
    match Store.commit t ~branch op with
    | _ -> ()
    | exception (Invalid_argument _ | Not_found) -> ()
  in
  List.iteri
    (fun step a ->
      match a with
      | A_branch i ->
          let n = List.length (Store.branch_names t) in
          if n < 4 then ignore (Store.branch t ~from:(pick i) (Printf.sprintf "b%d" step))
      | A_insert (i, k) -> try_commit (pick i) (insert_r1 (step * 1000 + k) "q")
      | A_offer i ->
          try_commit (pick i) (Op.Offer { start = "R1"; goal = "R3"; max_len = 2 })
      | A_rotate i -> try_commit (pick i) Op.Rotate
      | A_select (i, e) ->
          let branch = pick i in
          let entries = Clio.Workspace.entries (Store.checkout t branch) in
          let id = (List.nth entries (e mod List.length entries)).Clio.Workspace.id in
          try_commit branch (Op.Select { entry = id })
      | A_delete (i, e) ->
          let branch = pick i in
          let entries = Clio.Workspace.entries (Store.checkout t branch) in
          let id = (List.nth entries (e mod List.length entries)).Clio.Workspace.id in
          try_commit branch (Op.Delete { entry = id })
      | A_confirm i -> try_commit (pick i) Op.Confirm
      | A_merge (i, j) ->
          let into = pick i and from = pick j in
          if into <> from then ignore (Store.merge t ~into ~from))
    script

let prop_branches_linearize =
  QCheck2.Test.make ~name:"every branch = linear replay (jobs x cache)" ~count:12
    script_gen (fun script ->
      let cache = Engine.Eval_cache.create () in
      let t = make_store ~cache () in
      run_script t script;
      let expected =
        List.map
          (fun b -> (b, dg_digest (Store.checkout t b)))
          (Store.branch_names t)
      in
      List.for_all
        (fun (jobs, cached) ->
          let replay_cache = if cached then Some (Engine.Eval_cache.create ()) else None in
          List.for_all
            (fun (b, dg) ->
              let ws =
                List.fold_left Op.apply
                  (resolver ?cache:replay_cache ~jobs () spec)
                  (Store.linear_ops t ~branch:b)
              in
              String.equal dg (dg_digest ws))
            expected)
        [ (1, false); (1, true); (4, false); (4, true) ])

(* --- snapshot round-trips --- *)

let build_sample () =
  let cache = Engine.Eval_cache.create () in
  let t = make_store ~cache () in
  ignore (Store.commit t ~branch:Store.main (insert_r1 1 "a"));
  ignore (Store.commit t ~branch:Store.main (Op.Offer { start = "R1"; goal = "R3"; max_len = 2 }));
  ignore (Store.branch t ~from:Store.main "fork");
  ignore (Store.commit t ~branch:"fork" (insert_r3 2 "b"));
  ignore (Store.commit t ~branch:"fork" Op.Rotate);
  ignore (Store.branch t ~from:"fork" "deep");
  ignore (Store.commit t ~branch:"deep" (insert_r1 3 "c"));
  ignore (Store.merge t ~into:Store.main ~from:"deep");
  t

let test_snapshot_roundtrip () =
  let t = build_sample () in
  with_temp_dir @@ fun dir ->
  Store.save t ~dir;
  Alcotest.(check bool) "snapshot written" true
    (Sys.file_exists (Filename.concat dir "snapshot.json"));
  Alcotest.(check bool) "changelog written" true
    (Sys.file_exists (Filename.concat dir "changelog.jsonl"));
  let t' = Store.load ~resolve:(resolver ()) ~dir () in
  Alcotest.(check bool) "spec survives" true (Store.spec t' = spec);
  Alcotest.(check (list string)) "branches survive, in order"
    (Store.branch_names t) (Store.branch_names t');
  List.iter
    (fun b ->
      Alcotest.(check int) (b ^ ": head survives") (Store.head t b)
        (Store.head t' b);
      Alcotest.(check string) (b ^ ": state digest survives")
        (Store.state_digest t b) (Store.state_digest t' b);
      Alcotest.(check string) (b ^ ": D(G) survives the restart")
        (dg_digest (Store.checkout t b))
        (dg_digest (Store.checkout t' b)))
    (Store.branch_names t);
  (* And the restarted store keeps working: same mutation on both sides
     stays in lockstep. *)
  ignore (Store.commit t ~branch:"fork" (insert_r1 9 "z"));
  ignore (Store.commit t' ~branch:"fork" (insert_r1 9 "z"));
  Alcotest.(check string) "post-restart commits stay in lockstep"
    (Store.state_digest t "fork") (Store.state_digest t' "fork")

let test_snapshot_rejects_tampering () =
  let t = build_sample () in
  with_temp_dir @@ fun dir ->
  Store.save t ~dir;
  let path = Filename.concat dir "changelog.jsonl" in
  let ic = open_in path in
  let lines =
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  (* Drop the last commit: replay no longer reaches the recorded heads
     and digests; load must refuse rather than resurrect partial state. *)
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      List.iteri
        (fun i l -> if i < List.length lines - 1 then output_string oc (l ^ "\n"))
        lines);
  match Store.load ~resolve:(resolver ()) ~dir () with
  | _ -> Alcotest.fail "truncated changelog should be rejected"
  | exception Failure _ -> ()

(* Every field is read through one integer and one string rule: a saved
   store with one mistyped field must not load. *)
let test_snapshot_rejects_mistyped_fields () =
  let t = build_sample () in
  let find sub s =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun (label, file, sub, by, field) ->
      with_temp_dir @@ fun dir ->
      Store.save t ~dir;
      let path = Filename.concat dir file in
      let text = Store.read_file path in
      (match find sub text with
      | None -> Alcotest.failf "%s: %S not in the saved file" label sub
      | Some i ->
          Store.write_file path
            (String.sub text 0 i ^ by
            ^ String.sub text (i + String.length sub)
                (String.length text - i - String.length sub)));
      match Store.load ~resolve:(resolver ()) ~dir () with
      | _ -> Alcotest.failf "%s: should be rejected" label
      | exception Failure msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S names the field" label msg)
            true
            (find (Printf.sprintf "field %S" field) msg <> None))
    [
      ("fractional cid", "changelog.jsonl", {|"cid":0|}, {|"cid":0.5|}, "cid");
      ( "non-string branch",
        "changelog.jsonl",
        {|"branch":"main"|},
        {|"branch":7|},
        "branch" );
      ("fractional scenario size", "snapshot.json", {|"n":3|}, {|"n":2.5|}, "n");
    ]

let () =
  Alcotest.run "version"
    [
      ( "store",
        [
          tc "branch and checkout" `Quick test_branch_checkout;
          tc "log is oldest-first through the fork" `Quick test_log_oldest_first;
          tc "failed commits record nothing" `Quick test_failed_commit_atomic;
          tc "merge, idempotency, lca" `Quick test_merge_and_lca;
          tc "diff" `Quick test_diff;
        ] );
      ( "truncation",
        [
          tc "evicted history never yields a stale promotion" `Quick
            test_truncated_history_not_stale;
        ] );
      ("property", [ qtest prop_branches_linearize ]);
      ( "snapshot",
        [
          tc "save/load round-trips every branch" `Quick test_snapshot_roundtrip;
          tc "tampered changelog is rejected" `Quick
            test_snapshot_rejects_tampering;
          tc "mistyped fields are rejected" `Quick
            test_snapshot_rejects_mistyped_fields;
        ] );
    ]
