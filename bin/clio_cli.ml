(* clio-cli — explore a source database the Clio way.

   The database is either the built-in paper database (default) or a
   directory of CSV files (one relation per file, header = column names;
   join knowledge is mined from the data).

     clio_cli show [REL]          render relations
     clio_cli profile [REL]       column statistics (nulls, keys, ranges)
     clio_cli mine                mined inclusion dependencies (join knowledge)
     clio_cli select REL PRED     filter a relation with a SQL-ish predicate
     clio_cli occurrences VALUE   where a value occurs (the chase primitive)
     clio_cli walk START GOAL     join paths between two relations
     clio_cli suggest REL...      query graphs connecting a set of relations
     clio_cli illustrate          sufficient illustration of the paper mapping
     clio_cli sql                 SQL for the paper's final Section 2 mapping
     clio_cli stats               operator-counter rollup, per D(G) algorithm
     clio_cli run FILE [--save O] run a mapping-session script
     clio_cli repl                interactive mapping session

   Every subcommand additionally accepts the observability flags
   --trace[=FILE] (record spans, write Chrome trace-event JSON; default
   file trace.json), --stats (print the operator counters and span
   duration histograms afterwards) and --metrics[=FILE] (write the full
   metrics state — counters, histogram percentiles, span durations and
   GC allocation, environment — as JSON; default file metrics.json), and
   --no-cache (disable the engine's F(J)/D(G) memo cache — every context
   built downstream evaluates from scratch; the ablation switch used by
   the benchmarks), and --jobs N (evaluate fan-out points on a pool of N
   domains; default 1, also settable via CLIO_JOBS). *)

open Relational
open Cmdliner

(* --- observability flags -------------------------------------------------

   Extracted by hand before cmdliner parsing so they behave identically on
   every subcommand and in any position: both
   [clio_cli --trace=/tmp/t.json illustrate] and
   [clio_cli illustrate --stats] work. *)

type obs_opts = {
  trace : string option;
  stats : bool;
  metrics : string option;
  no_cache : bool;
  jobs : int option;
}

let extract_obs_flags argv =
  let trace = ref None
  and stats = ref false
  and metrics = ref None
  and no_cache = ref false
  and jobs = ref None in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.equal (String.sub s 0 (String.length prefix)) prefix
  in
  let value_of flag arg =
    (* "--flag=VALUE" -> VALUE; an empty VALUE would silently create a file
       named "" — reject it like cmdliner rejects a missing argument. *)
    let eq = String.index arg '=' in
    let v = String.sub arg (eq + 1) (String.length arg - eq - 1) in
    if String.equal v "" then begin
      Printf.eprintf "clio_cli: option '%s': FILE must not be empty\n" flag;
      exit 124
    end;
    v
  in
  (* "--jobs N" (two tokens) is folded into "--jobs=N" so the filter below
     stays one-pass. *)
  let rec fuse_jobs = function
    | "--jobs" :: v :: rest -> ("--jobs=" ^ v) :: fuse_jobs rest
    | arg :: rest -> arg :: fuse_jobs rest
    | [] -> []
  in
  let keep =
    fuse_jobs (Array.to_list argv)
    |> List.filter (fun arg ->
           if String.equal arg "--stats" then begin
             stats := true;
             false
           end
           else if String.equal arg "--no-cache" then begin
             no_cache := true;
             false
           end
           else if String.equal arg "--trace" then begin
             trace := Some "trace.json";
             false
           end
           else if starts_with "--trace=" arg then begin
             trace := Some (value_of "--trace" arg);
             false
           end
           else if String.equal arg "--metrics" then begin
             metrics := Some "metrics.json";
             false
           end
           else if starts_with "--metrics=" arg then begin
             metrics := Some (value_of "--metrics" arg);
             false
           end
           else if starts_with "--jobs=" arg then begin
             (match int_of_string_opt (value_of "--jobs" arg) with
             | Some n when n >= 1 -> jobs := Some n
             | Some _ | None ->
                 Printf.eprintf "clio_cli: option '--jobs': N must be >= 1\n";
                 exit 124);
             false
           end
           else true)
  in
  ( Array.of_list keep,
    {
      trace = !trace;
      stats = !stats;
      metrics = !metrics;
      no_cache = !no_cache;
      jobs = !jobs;
    } )

let database data_dir =
  match data_dir with
  | None -> Paperdata.Figure1.database
  | Some dir -> Csv_io.database_of_dir dir

let kb_of db data_dir =
  match data_dir with
  | None -> Paperdata.Figure1.kb
  | Some _ ->
      (* CSV directories carry no constraints: mine the data.  Real data is
         dirty (orphan references), so accept candidates with at least 60%
         inclusion. *)
      Schemakb.Kb.add_mined (Schemakb.Kb.of_database db)
        (Schemakb.Mine.inclusion_dependencies ~min_overlap:0.6 db)

let data_arg =
  let doc = "Directory of CSV files to load as the source database." in
  Arg.(value & opt (some dir) None & info [ "d"; "data" ] ~docv:"DIR" ~doc)

let show_cmd =
  let rel_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"REL" ~doc:"Relation name")
  in
  let run data rel =
    let db = database data in
    match rel with
    | None -> List.iter (fun r -> print_endline (Render.relation r)) (Database.relations db)
    | Some name -> (
        match Database.find db name with
        | Some r -> print_endline (Render.relation r)
        | None ->
            Printf.eprintf "unknown relation %s\n" name;
            exit 1)
  in
  Cmd.v (Cmd.info "show" ~doc:"Render relations of the source database")
    Term.(const run $ data_arg $ rel_arg)

let mine_cmd =
  let overlap_arg =
    Arg.(value & opt float 1.0 & info [ "overlap" ] ~docv:"FRACTION"
           ~doc:"Minimum inclusion fraction (1.0 = exact).")
  in
  let run data overlap =
    let db = database data in
    Schemakb.Mine.inclusion_dependencies ~min_overlap:overlap db
    |> List.iter (fun c ->
           Format.printf "%a@." Schemakb.Mine.pp_candidate c)
  in
  Cmd.v (Cmd.info "mine" ~doc:"Mine inclusion dependencies (join knowledge)")
    Term.(const run $ data_arg $ overlap_arg)

let occurrences_cmd =
  let value_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"VALUE" ~doc:"Value to chase")
  in
  let run data value =
    let db = database data in
    let v = Database.value_of_text db value in
    match Database.find_value db v with
    | [] -> Printf.printf "value %s not found\n" (Value.to_string v)
    | occs ->
        List.iter
          (fun (rel, col, count) -> Printf.printf "%s.%s (%d tuples)\n" rel col count)
          occs
  in
  Cmd.v
    (Cmd.info "occurrences" ~doc:"Locate a value across the database (chase primitive)")
    Term.(const run $ data_arg $ value_arg)

let walk_cmd =
  let start_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"START" ~doc:"Start relation")
  in
  let goal_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"GOAL" ~doc:"Goal relation")
  in
  let len_arg =
    Arg.(value & opt int 3 & info [ "max-len" ] ~docv:"N" ~doc:"Maximum path length")
  in
  let run data start goal max_len =
    let db = database data in
    let kb = kb_of db data in
    if not (Database.mem db start) then begin
      Printf.eprintf "unknown relation %s\n" start;
      exit 1
    end;
    let m =
      Clio.Mapping.make
        ~graph:(Querygraph.Qgraph.singleton ~alias:start ~base:start)
        ~target:"Out" ~target_cols:[] ()
    in
    match Clio.Op_walk.walk_alternatives ~kb m ~start ~goal ~max_len () with
    | [] -> Printf.printf "no walks from %s to %s within %d steps\n" start goal max_len
    | alts ->
        List.iteri
          (fun i (a : Clio.Op_walk.alternative) ->
            Printf.printf "%d. %s\n" (i + 1) a.Clio.Op_walk.description)
          alts
  in
  Cmd.v (Cmd.info "walk" ~doc:"Enumerate join paths between two relations")
    Term.(const run $ data_arg $ start_arg $ goal_arg $ len_arg)

let profile_cmd =
  let rel_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"REL" ~doc:"Relation name")
  in
  let run data rel =
    let db = database data in
    let stats =
      match rel with
      | None -> Schemakb.Profile.database db
      | Some name -> (
          match Database.find db name with
          | Some r -> Schemakb.Profile.relation r
          | None ->
              Printf.eprintf "unknown relation %s\n" name;
              exit 1)
    in
    print_endline (Schemakb.Profile.render stats)
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Column statistics mined from the source data")
    Term.(const run $ data_arg $ rel_arg)

let suggest_cmd =
  let rels_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"REL" ~doc:"Relations to connect")
  in
  let run data rels =
    let db = database data in
    let kb = kb_of db data in
    match Clio.Suggest.connection_graphs ~kb rels with
    | [] -> Printf.printf "no connection graphs found for %s\n" (String.concat ", " rels)
    | suggestions ->
        List.iteri
          (fun i (s : Clio.Suggest.suggestion) ->
            Printf.printf "%d. %s\n" (i + 1)
              (Querygraph.Qgraph.to_string s.Clio.Suggest.graph))
          suggestions
  in
  Cmd.v
    (Cmd.info "suggest"
       ~doc:"Suggest query graphs connecting a set of relations (universal-relation style)")
    Term.(const run $ data_arg $ rels_arg)

let select_cmd =
  let rel_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"REL" ~doc:"Relation name")
  in
  let pred_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"PREDICATE" ~doc:"Filter, e.g. 'age < 7'")
  in
  let run data rel pred =
    let db = database data in
    match Database.find db rel with
    | None ->
        Printf.eprintf "unknown relation %s\n" rel;
        exit 1
    | Some r -> (
        match Parse.predicate_opt ~rel pred with
        | None ->
            Printf.eprintf "cannot parse predicate: %s\n" pred;
            exit 1
        | Some p -> print_endline (Render.relation (Algebra.select p r)))
  in
  Cmd.v (Cmd.info "select" ~doc:"Filter a relation with a SQL-ish predicate")
    Term.(const run $ data_arg $ rel_arg $ pred_arg)

let illustrate_cmd =
  let run () =
    let db = Paperdata.Figure1.database in
    let m = Paperdata.Running.mapping in
    let ctx = Clio.Eval_ctx.create ~kb:Paperdata.Figure1.kb db in
    let ill = Clio.illustrate ctx m in
    let fd = Clio.Mapping_eval.data_associations ctx m in
    print_endline
      (Clio.Illustration.render ~short:Paperdata.Figure1.short
         ~scheme:fd.Fulldisj.Full_disjunction.scheme ill)
  in
  Cmd.v
    (Cmd.info "illustrate"
       ~doc:"Sufficient illustration of the paper's running mapping")
    Term.(const run $ const ())

let sql_cmd =
  let run () = print_endline (Paperdata.Report.sql ()) in
  Cmd.v (Cmd.info "sql" ~doc:"Generated SQL for the Section 2 mapping")
    Term.(const run $ const ())

let stats_cmd =
  let run () =
    let db = Paperdata.Figure1.database in
    let m = Paperdata.Running.mapping in
    Obs.enable ();
    (* Per-algorithm rollup: the paper mapping's D(G), counted three ways —
       the engine's columnar [compute] against the naive oracle and the
       outer-join cascade.  The counter deltas — not the timings — are the
       algorithmic explanation of why the engine's path wins. *)
    let src = Fulldisj.Source.of_db db in
    let algorithms =
      [
        ("naive", Fulldisj.Full_disjunction.naive);
        ("compute", Fulldisj.Full_disjunction.compute);
        ("outerjoin", Fulldisj.Outerjoin_plan.full_disjunction);
      ]
    in
    let snaps =
      List.map
        (fun (label, algorithm) ->
          Obs.reset ();
          ignore (algorithm src m.Clio.Mapping.graph);
          (label, Obs.Metrics.(nonzero (snapshot ())).counters))
        algorithms
    in
    let names =
      List.concat_map (fun (_, cs) -> List.map fst cs) snaps
      |> List.fold_left
           (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
           []
    in
    print_endline
      "D(G) of the paper mapping — operator counters per algorithm:";
    print_newline ();
    let width = List.fold_left (fun w n -> max w (String.length n)) 7 names in
    Printf.printf "%-*s" width "counter";
    List.iter (fun (label, _) -> Printf.printf " %10s" label) snaps;
    print_newline ();
    Printf.printf "%s\n" (String.make (width + (11 * List.length snaps)) '-');
    List.iter
      (fun n ->
        Printf.printf "%-*s" width n;
        List.iter
          (fun (_, cs) ->
            Printf.printf " %10d"
              (match List.assoc_opt n cs with Some v -> v | None -> 0))
          snaps;
        print_newline ())
      names;
    (* End-to-end rollup of the default workflow, histograms included. *)
    Obs.reset ();
    ignore (Clio.illustrate (Clio.Eval_ctx.transient db) m);
    print_newline ();
    print_endline "End-to-end `illustrate` rollup:";
    print_newline ();
    print_endline (Obs.report ());
    (* Lineage rollup: provenance + why-null of a real target row, so the
       explain.* counters (derivations enumerated, tuples matched) are
       visible next to the evaluation counters. *)
    Obs.reset ();
    let exs = Clio.Mapping_eval.examples (Clio.Eval_ctx.transient db) m in
    (match
       List.find_opt (fun e -> e.Clio.Example.positive) exs
     with
    | None -> ()
    | Some e ->
        let t = e.Clio.Example.target_tuple in
        let null_col =
          (* Prefer a column that is actually null in the row. *)
          let cols = m.Clio.Mapping.target_cols in
          let rec pick i = function
            | [] -> List.nth_opt cols 0
            | c :: rest ->
                if Value.is_null (Tuple.get t i) then Some c
                else pick (i + 1) rest
          in
          pick 0 cols
        in
        ignore (Clio.Explain.of_target_tuple (Clio.Eval_ctx.transient db) m t);
        Option.iter (fun col -> ignore (Clio.Explain.why_null (Clio.Eval_ctx.transient db) m t col)) null_col;
        print_newline ();
        Printf.printf "Lineage rollup (`explain` on target row %s):\n"
          (Tuple.to_string t);
        print_newline ();
        print_endline (Obs.Metrics.render_counters ()));
    (* Cache rollup: replay the interactive loop — offer alternatives,
       rotate through them, confirm — inside one caching context, then show
       the engine's cache counters (hits/misses/evictions per tier and
       resident bytes).  This is the memoization the workspace UX rides on. *)
    Obs.reset ();
    let ctx = Clio.Eval_ctx.create ~kb:Paperdata.Figure1.kb db in
    let g1 = Paperdata.Running.mapping_g1 in
    let ws = Clio.Workspace.create ctx g1 in
    let alts =
      match
        Clio.Op_walk.data_walk ctx g1 ~start:"Children" ~goal:"PhoneDir"
          ~max_len:2 ()
      with
      | [] -> [ g1 ]
      | walks -> List.map (fun (a : Clio.Op_walk.alternative) -> a.Clio.Op_walk.mapping) walks
    in
    let ws = Clio.Workspace.offer ws alts in
    let ws = ref ws in
    for _ = 1 to 2 * List.length alts do
      ws := Clio.Workspace.rotate !ws;
      ignore (Clio.Workspace.target_view !ws)
    done;
    (* An example edit mid-session: inserting a Children row bumps the
       database version, and the re-evaluations after it exercise the
       engine's incremental path — the cache.promote.* / delta.* counters
       below come from here. *)
    let ws =
      Clio.Workspace.add_tuples (Clio.Workspace.confirm !ws) "Children"
        [
          [|
            Value.String "012"; Value.String "Zoe"; Value.Int 7;
            Value.String "103"; Value.String "104"; Value.String "d31";
          |];
        ]
    in
    ignore (Clio.Workspace.render ws);
    print_newline ();
    print_endline
      "Cache rollup (workspace offer/rotate/edit/confirm in one caching \
       context):";
    print_newline ();
    let counters = Obs.Metrics.(nonzero (snapshot ())).counters in
    let prefixed p n =
      String.length n >= String.length p
      && String.equal (String.sub n 0 (String.length p)) p
    in
    let cache_counters =
      List.filter
        (fun (n, _) -> prefixed "cache." n || prefixed "delta." n)
        counters
    in
    if cache_counters = [] then print_endline "  (no cache activity recorded)"
    else
      List.iter (fun (n, v) -> Printf.printf "  %-26s %10d\n" n v) cache_counters;
    Obs.disable ();
    Obs.reset ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Operator-counter rollup on the paper mapping, per D(G) algorithm")
    Term.(const run $ const ())

let run_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Script file")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"OUT"
             ~doc:"Write the resulting mapping as a runnable script to $(docv).")
  in
  let html_arg =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"OUT"
             ~doc:"Write an HTML report of the resulting mapping to $(docv).")
  in
  let run data file save html =
    let db = database data in
    let kb = kb_of db data in
    let ctx = Clio.Eval_ctx.create ~kb db in
    let ic = open_in_bin file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Clio.Script.run_result_ctx ctx text with
    | Ok outcome ->
        List.iter print_endline outcome.Clio.Script.log;
        let emit what out render =
          match outcome.Clio.Script.mapping with
          | Some m ->
              let oc = open_out out in
              output_string oc (render m);
              close_out oc;
              Printf.printf "%s written to %s\n" what out
          | None -> Printf.eprintf "warning: no mapping for --%s\n" what
        in
        Option.iter (fun out -> emit "save" out Clio.Mapping_io.save) save;
        Option.iter (fun out -> emit "html" out (Clio.Report_html.page ctx)) html
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a mapping-session script (see Clio.Script)")
    Term.(const run $ data_arg $ file_arg $ save_arg $ html_arg)

let repl_cmd =
  let run data =
    let db = database data in
    let kb = kb_of db data in
    print_endline "clio repl — type commands (see Clio.Script); ctrl-d to quit";
    let state = ref (Clio.Script.Interactive.start_ctx (Clio.Eval_ctx.create ~kb db)) in
    (try
       while true do
         print_string "clio> ";
         let line = read_line () in
         match Clio.Script.Interactive.feed !state line with
         | Ok (st, output) ->
             state := st;
             List.iter print_endline output
         | Error e -> Printf.printf "error: %s\n" e
       done
     with End_of_file -> print_newline ());
    match Clio.Script.Interactive.mapping !state with
    | Some m -> Format.printf "final mapping:@.%a@." Clio.Mapping.pp m
    | None -> ()
  in
  Cmd.v (Cmd.info "repl" ~doc:"Interactive mapping session") Term.(const run $ data_arg)

(* --- store: the branching version store, offline -----------------------

   Single-shot counterparts of the server's branch/checkout/merge/diff
   verbs: each invocation loads the store from --dir (replaying its
   changelog), performs one operation, and saves it back.  The same
   snapshot format clio_serve --store-dir uses, so a server's persisted
   sessions can be inspected and mutated offline. *)

let store_resolve spec =
  let db, kb, mapping = Version.Scenario.resolve spec in
  let ctx = Clio.Eval_ctx.create ~kb db in
  Clio.Workspace.create ctx mapping

let store_load dir = Version.Store.load ~resolve:store_resolve ~dir ()

let store_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR" ~doc:"Store directory (snapshot + changelog).")

let store_branch_arg =
  Arg.(
    value
    & opt string Version.Store.main
    & info [ "branch" ] ~docv:"NAME" ~doc:"Branch to operate on.")

let store_wrap f =
  match f () with
  | () -> `Ok ()
  | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
      `Error (false, msg)

let store_init_run dir scenario size rows seed =
  let spec =
    match String.lowercase_ascii scenario with
    | "paper" -> Version.Scenario.Paper
    | "chain" -> Version.Scenario.Chain { n = size; rows; seed }
    | "star" -> Version.Scenario.Star { leaves = size; rows; seed }
    | other ->
        Printf.eprintf "unknown scenario %S (paper, chain or star)\n" other;
        exit 2
  in
  store_wrap (fun () ->
      (match Version.Scenario.validate spec with
      | Ok () -> ()
      | Error msg -> failwith msg);
      let store = Version.Store.create ~resolve:store_resolve spec in
      Version.Store.save store ~dir;
      Printf.printf "initialized %s store in %s\n"
        (Version.Scenario.to_string spec)
        dir)

let store_init_cmd =
  let scenario_arg =
    Arg.(
      value & opt string "paper"
      & info [ "scenario" ] ~docv:"NAME" ~doc:"paper, chain or star.")
  in
  let size_arg =
    Arg.(
      value & opt int 3
      & info [ "size" ] ~docv:"N" ~doc:"Chain length / star leaves.")
  in
  let rows_arg =
    Arg.(
      value & opt int 500
      & info [ "rows" ] ~docv:"N" ~doc:"Rows per synthetic relation.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")
  in
  Cmd.v
    (Cmd.info "init" ~doc:"Create a fresh store over a scenario")
    Term.(
      ret
        (const store_init_run $ store_dir_arg $ scenario_arg $ size_arg
       $ rows_arg $ seed_arg))

let store_show_run dir =
  store_wrap (fun () ->
      let store = store_load dir in
      Printf.printf "scenario  %s\n"
        (Version.Scenario.to_string (Version.Store.spec store));
      List.iter
        (fun (name, version) ->
          Printf.printf "%-12s head %-4d dbv %-4d %s\n" name
            (Version.Store.head store name)
            version
            (Version.Store.state_digest store name))
        (Version.Store.branches store))

let store_show_cmd =
  Cmd.v
    (Cmd.info "show"
       ~doc:"List branches: head commit, database version, state digest")
    Term.(ret (const store_show_run $ store_dir_arg))

let store_branch_run dir from name =
  store_wrap (fun () ->
      let store = store_load dir in
      ignore (Version.Store.branch store ~from name);
      Version.Store.save store ~dir;
      Printf.printf "branched %s off %s at commit %d\n" name from
        (Version.Store.head store from))

let store_branch_cmd =
  let from_arg =
    Arg.(
      value
      & opt string Version.Store.main
      & info [ "from" ] ~docv:"NAME" ~doc:"Branch to fork off.")
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"New branch name.")
  in
  Cmd.v
    (Cmd.info "branch" ~doc:"Fork a new branch off an existing one")
    Term.(ret (const store_branch_run $ store_dir_arg $ from_arg $ name_arg))

let store_merge_run dir into from =
  store_wrap (fun () ->
      let store = store_load dir in
      let rows = Version.Store.merge store ~into ~from in
      Version.Store.save store ~dir;
      Printf.printf "merged %s into %s: %d new row(s)\n" from into rows)

let store_merge_cmd =
  let into_arg =
    Arg.(
      value
      & opt string Version.Store.main
      & info [ "into" ] ~docv:"NAME" ~doc:"Branch merged into.")
  in
  let from_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "from" ] ~docv:"NAME" ~doc:"Branch whose inserts are folded in.")
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Fold one branch's example-tuple inserts into another")
    Term.(ret (const store_merge_run $ store_dir_arg $ into_arg $ from_arg))

let store_diff_run dir a b =
  store_wrap (fun () ->
      let store = store_load dir in
      List.iter
        (fun (k, v) ->
          Printf.printf "%-24s %s\n" k
            (if Float.is_integer v then Printf.sprintf "%.0f" v
             else Printf.sprintf "%g" v))
        (Version.Store.diff store ~a ~b))

let store_diff_cmd =
  let a_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"A" ~doc:"First branch.")
  in
  let b_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"B" ~doc:"Second branch.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two branches: LCA, commits ahead/behind, per-relation row \
          drift")
    Term.(ret (const store_diff_run $ store_dir_arg $ a_arg $ b_arg))

let store_log_run dir branch =
  store_wrap (fun () ->
      let store = store_load dir in
      List.iter
        (fun (c : Version.Store.commit) ->
          let what =
            match c.Version.Store.kind with
            | Version.Store.Root -> "root"
            | Version.Store.Apply op -> Version.Op.name op
            | Version.Store.Branch_from src ->
                Printf.sprintf "branch from %s" src
            | Version.Store.Merge { from_branch; inserts } ->
                Printf.sprintf "merge %s (%d relation(s))" from_branch
                  (List.length inserts)
          in
          Printf.printf "%4d %-10s %s\n" c.Version.Store.cid
            c.Version.Store.branch what)
        (Version.Store.log store ~branch))

let store_log_cmd =
  Cmd.v
    (Cmd.info "log" ~doc:"A branch's commits, oldest first, through its fork")
    Term.(ret (const store_log_run $ store_dir_arg $ store_branch_arg))

(* "null" -> Null, integers -> Int, other numbers -> Float, rest -> String
   (same typing rule as the wire protocol's value decoding). *)
let parse_cell s =
  if String.lowercase_ascii s = "null" then Value.Null
  else
    match int_of_string_opt s with
    | Some i -> Value.Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Value.Float f
        | None -> Value.String s)

let store_insert_run dir branch relation cells =
  store_wrap (fun () ->
      let row = Array.of_list (List.map parse_cell cells) in
      let store = store_load dir in
      ignore
        (Version.Store.commit store ~branch
           (Version.Op.Insert { relation; rows = [ row ] }));
      Version.Store.save store ~dir;
      Printf.printf "inserted into %s on %s (commit %d)\n" relation branch
        (Version.Store.head store branch))

let store_insert_cmd =
  let relation_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REL" ~doc:"Relation inserted into.")
  in
  let cells_arg =
    Arg.(
      non_empty & pos_right 0 string []
      & info [] ~docv:"VALUE"
          ~doc:
            "Cell values, one per column ($(i,null), integers and floats \
             are typed; anything else is a string).")
  in
  Cmd.v
    (Cmd.info "insert"
       ~doc:"Commit an example-tuple insert on a branch")
    Term.(
      ret
        (const store_insert_run $ store_dir_arg $ store_branch_arg
       $ relation_arg $ cells_arg))

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Offline access to a branching version store (the same on-disk \
          format clio_serve --store-dir persists): init, branch, insert, \
          merge, diff, log, show.")
    [
      store_init_cmd;
      store_show_cmd;
      store_branch_cmd;
      store_merge_cmd;
      store_diff_cmd;
      store_log_cmd;
      store_insert_cmd;
    ]

(* Raised from the signal handlers so that Ctrl-C (or a TERM) during a
   long evaluation unwinds to the epilogue below — the --trace/--metrics
   files still get written — and exits with the conventional 128+signo
   code instead of the process dying mid-write. *)
exception Interrupted of int

let () =
  let argv, obs = extract_obs_flags Sys.argv in
  if obs.no_cache then Clio.Eval_ctx.set_caching_default false;
  (match obs.jobs with Some j -> Clio.Eval_ctx.set_jobs_default j | None -> ());
  if obs.trace <> None || obs.stats || obs.metrics <> None then Obs.enable ();
  let man =
    [
      `S Manpage.s_common_options;
      `P
        "$(b,--trace)[$(b,=)$(i,FILE)] records execution spans during any \
         subcommand and writes a Chrome trace-event JSON (default \
         $(i,trace.json)) loadable in chrome://tracing or ui.perfetto.dev.";
      `P
        "$(b,--stats) prints the operator counters and span-duration \
         histograms after any subcommand.";
      `P
        "$(b,--metrics)[$(b,=)$(i,FILE)] writes the full metrics state \
         (counters, histogram percentiles, per-span durations and GC \
         allocation, environment) as JSON (default $(i,metrics.json)) \
         after any subcommand.";
      `P
        "$(b,--no-cache) disables the engine's memoized evaluation cache \
         (F(J) and D(G) tiers): every evaluation context built during the \
         subcommand recomputes from scratch.  Useful for ablation and for \
         reproducing pre-cache timings.";
      `P
        "$(b,--jobs=)$(i,N) evaluates fan-out points (per-subgraph joins, \
         walk/chase alternatives, subsumption sweeps, illustration \
         scoring) on a pool of $(i,N) domains (default 1 = sequential; \
         the $(b,CLIO_JOBS) environment variable sets the default).  \
         Results are identical to sequential evaluation.";
    ]
  in
  let info =
    Cmd.info "clio_cli" ~version:"1.0.0"
      ~doc:"Data-driven understanding and refinement of schema mappings"
      ~man
  in
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle (fun _ -> raise (Interrupted 130)));
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> raise (Interrupted 143)));
  let group =
    Cmd.group info
      [
        show_cmd;
        mine_cmd;
        occurrences_cmd;
        walk_cmd;
        illustrate_cmd;
        sql_cmd;
        stats_cmd;
        profile_cmd;
        suggest_cmd;
        select_cmd;
        run_cmd;
        repl_cmd;
        store_cmd;
      ]
  in
  (* [~catch:false] so [Interrupted] reaches us; anything else gets
     cmdliner's usual internal-error treatment, reproduced here. *)
  let code =
    match Cmd.eval ~catch:false ~argv group with
    | code -> code
    | exception Interrupted code ->
        prerr_newline ();
        Printf.eprintf "clio_cli: interrupted\n";
        code
    | exception exn ->
        let bt = Printexc.get_backtrace () in
        Printf.eprintf "clio_cli: internal error, uncaught exception:\n%s\n%s"
          (Printexc.to_string exn) bt;
        Cmd.Exit.internal_error
  in
  let code =
    match obs.trace with
    | Some file -> (
        try
          Obs.write_trace file;
          Printf.eprintf
            "trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n"
            file;
          code
        with Sys_error msg ->
          Printf.eprintf "clio_cli: cannot write trace: %s\n" msg;
          max code 1)
    | None -> code
  in
  let code =
    match obs.metrics with
    | Some file -> (
        try
          Obs.write_metrics file;
          Printf.eprintf "metrics written to %s\n" file;
          code
        with Sys_error msg ->
          Printf.eprintf "clio_cli: cannot write metrics: %s\n" msg;
          max code 1)
    | None -> code
  in
  if obs.stats then begin
    print_newline ();
    print_endline (Obs.report ())
  end;
  exit code
