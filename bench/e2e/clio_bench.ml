(* clio_bench — the served-request benchmark.

     clio_bench run --seed 1                  all workloads, 30 s windows
     clio_bench run --workload chain-edit --label x --repeat 3
     clio_bench run --smoke                   every workload, tiny, ~1 s
     clio_bench trace --workload chain-explore --seed 1
     clio_bench compare A.json B.json         run sets against the first
     clio_bench bench --workload W --seed N --seconds S --trace 0|1

   [run] spawns the real clio_serve for each workload, drives it from two
   closed-loop socket clients and prints one [<workload> <metric> <value>
   <unit>] line per end-to-end metric; the same numbers, with the run
   environment, go to a JSON run-set file.  [trace] measures the per-layer
   split of one workload.  [bench] is the single-workload form whose last
   output line is one JSON object: {correct, attempted, failed, metrics}.
   See README.md in this directory. *)

open Cmdliner

let work_dir name =
  let dir =
    Filename.concat ".e2e-work" (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  Drive.rm_rf dir;
  Drive.mkdir_p dir;
  at_exit (fun () -> try Drive.rm_rf dir with Unix.Unix_error _ -> ());
  dir

let config ~smoke ~seed ~seconds w =
  {
    Workload.sizes = (if smoke then Script.smoke else Script.full);
    seed;
    seconds;
    instances = (if smoke then 1 else 3);
    dir = work_dir (Script.name w);
  }

let workloads_of names =
  List.map
    (fun n ->
      match Script.of_name n with
      | Some w -> w
      | None ->
          failwith
            (Printf.sprintf "unknown workload %S (%s)" n
               (String.concat ", " (List.map Script.name Script.all))))
    names

(* --- run ----------------------------------------------------------------- *)

(* What the smoke run must show: every metric named with its unit, no
   failed request or mismatch, a computed acked_lost_ratio, a JSON file
   that parses back. *)
let smoke_check outcomes file =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (o : Workload.outcome) ->
      let w = Script.name o.Workload.workload in
      if o.Workload.failed > 0 then
        fail "%s: %d failed (%s)" w o.Workload.failed
          (Option.value ~default:"digest mismatch" o.Workload.first_error);
      if o.Workload.checked = 0 then fail "%s: no cycle checked" w;
      if List.length (Report.lines o) <> List.length Metric.defs then
        fail "%s: metric lines missing" w;
      if
        o.Workload.workload = Script.Restart
        && List.assoc "acked_lost_ratio" o.Workload.values = None
      then fail "restart: acked_lost_ratio not computed")
    outcomes;
  (match Obs.Json.parse (Drive.read_file file) with
  | Ok _ -> ()
  | Error msg -> fail "%s does not parse: %s" file msg);
  List.rev !problems

let run_cmd_run seed names label seconds repeat smoke =
  let ws = if names = [] then Script.all else workloads_of names in
  let seconds = if smoke then 1. else seconds in
  let runs, outcomes =
    List.split
      (List.init repeat (fun _ ->
           let outcomes =
             List.map
               (fun w ->
                 let o = Workload.run (config ~smoke ~seed ~seconds w) w in
                 List.iter print_endline (Report.lines o);
                 flush stdout;
                 o)
               ws
           in
           (Report.run_json ~seed outcomes, outcomes)))
  in
  let file = Printf.sprintf "e2e-%s.json" label in
  Drive.write_file file
    (Obs.Json.to_string_pretty
       (Report.run_set ~label ~env:(Report.env ~seconds ~smoke) runs));
  Printf.printf "wrote %s\n%!" file;
  let failed =
    List.exists (fun (o : Workload.outcome) -> o.Workload.failed > 0) (List.concat outcomes)
  in
  if smoke then
    match smoke_check (List.concat outcomes) file with
    | [] ->
        print_endline "smoke: ok";
        `Ok ()
    | problems -> `Error (false, "smoke: " ^ String.concat "; " problems)
  else if failed then `Error (false, "some requests failed or mismatched")
  else `Ok ()

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")

let workloads_arg =
  Arg.(
    value & opt_all string []
    & info [ "workload" ] ~docv:"W"
        ~doc:
          "Workload to run (repeatable; default all): paper-session, \
           chain-explore, chain-edit, restart.")

let seconds_arg default =
  Arg.(
    value & opt float default
    & info [ "seconds" ] ~docv:"S" ~doc:"Length of each timed window.")

let run_cmd =
  let label =
    Arg.(
      value & opt string "run"
      & info [ "label" ] ~docv:"L" ~doc:"Run-set label; the file is e2e-L.json.")
  and repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"K" ~doc:"Runs in the set.")
  and smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Tiny sizes and 1 s windows; fail unless every check passes.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Measure the end-to-end metrics of the workloads.")
    Term.(
      ret
        (const run_cmd_run $ seed_arg $ workloads_arg $ label $ seconds_arg 30.
       $ repeat $ smoke))

(* --- trace --------------------------------------------------------------- *)

let one_workload name =
  match workloads_of [ name ] with [ w ] -> w | _ -> assert false

let trace_run name seed seconds =
  let w = one_workload name and out_dir = "e2e-trace" in
  let r = Layers.run (config ~smoke:false ~seed ~seconds w) w ~out_dir in
  Layers.print r;
  let file = Filename.concat out_dir (Printf.sprintf "layers-%s.json" name) in
  Drive.write_file file (Obs.Json.to_string_pretty (Layers.to_json r));
  Printf.printf "wrote %s and %s\n%!" file
    (Filename.concat out_dir (Printf.sprintf "trace-%s.json" name));
  if r.Layers.correct then `Ok () else `Error (false, "the traced run failed checks")

let workload_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "workload" ] ~docv:"W"
        ~doc:"paper-session, chain-explore, chain-edit or restart.")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Per-layer metrics of one workload: socket pass joined to the \
          server's event log, plus a traced in-process layer replay.  \
          Writes e2e-trace/layers-W.json and e2e-trace/trace-W.json.")
    Term.(ret (const trace_run $ workload_arg $ seed_arg $ seconds_arg 30.))

(* --- bench: the single-workload form with a JSON result line ------------- *)

(* (name, unit) of BENCHMARK.json's [end_to_end] or [per_layer] list. *)
let benchmark_metrics key =
  match Obs.Json.parse (Drive.read_file "BENCHMARK.json") with
  | Error msg -> failwith ("BENCHMARK.json: " ^ msg)
  | Ok j ->
      List.map
        (fun m ->
          match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
          | Some (Obs.Json.Str n), Some (Obs.Json.Str u) -> (n, u)
          | _ -> failwith "BENCHMARK.json: metric without name or unit")
        (Obs.Json.arr_items (Option.value ~default:Obs.Json.Null (Obs.Json.member key j)))

let bench_run name seed seconds trace =
  let w = one_workload name in
  let cfg = config ~smoke:false ~seed ~seconds w in
  let wanted = benchmark_metrics (if trace then "per_layer" else "end_to_end") in
  let correct, attempted, failed, values =
    if trace then begin
      let r = Layers.run cfg w ~out_dir:(Filename.concat cfg.Workload.dir "trace") in
      Layers.print r;
      ( r.Layers.correct,
        r.Layers.attempted,
        r.Layers.failed,
        fun n ->
          List.find_map (fun (m, _, v) -> if m = n then v else None) r.Layers.metrics )
    end
    else begin
      let o = Workload.run cfg w in
      List.iter print_endline (Report.lines o);
      (o.Workload.failed = 0, o.Workload.attempted, o.Workload.failed, Report.reported o)
    end
  in
  let metric (n, u) =
    match values n with
    | Some v ->
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (Obs.Json.quote n) v
          (Obs.Json.quote u)
    | None -> failwith (Printf.sprintf "%s reports no %s" name n)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric wanted));
  `Ok ()

let bench_cmd =
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1: report BENCHMARK.json's per_layer metrics from a traced run.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "One workload; the last output line is a JSON object with \
          $(i,correct), $(i,attempted), $(i,failed) and the metrics \
          BENCHMARK.json lists.")
    Term.(
      ret
        (const (fun w s secs t -> bench_run w s secs (t = 1))
        $ workload_arg $ seed_arg $ seconds_arg 10. $ trace))

(* --- compare ------------------------------------------------------------- *)

let compare_run files =
  if List.length files < 2 then `Error (true, "give at least two run-set files")
  else
    let regressions = Report.compare files in
    if regressions > 0 then `Error (false, Printf.sprintf "%d regression(s)" regressions)
    else `Ok ()

let compare_cmd =
  let files = Arg.(value & pos_all file [] & info [] ~docv:"RUNSET") in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Per metric and workload, the median and quartiles of each run set \
          and a verdict against the first set.")
    Term.(ret (const compare_run $ files))

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "clio_bench" ~doc:"Served-request benchmark of clio_serve.")
          [ run_cmd; trace_cmd; compare_cmd; bench_cmd ]))
