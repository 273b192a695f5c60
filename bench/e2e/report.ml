(* Printing and recording runs: one [<workload> <metric> <value> <unit>]
   line per metric, and a JSON run-set file holding the same numbers with
   the run environment.  Also the run-set comparison. *)

module J = Obs.Json

(* Metrics whose interquartile spread over five runs (seed 1, 30 s
   windows, 2-core host) exceeded the largest bound the benchmark allows,
   0.25 of the median: dropped from that workload's report. *)
let dropped =
  [
    ("paper-session", "drain_s", "spread 0.87: a 3 ms drain");
    ("chain-explore", "drain_s", "spread 0.41");
    ("chain-edit", "drain_s", "spread 0.57: a 6 ms drain");
  ]

let dropped_reason workload metric =
  List.find_map
    (fun (w, m, why) -> if w = workload && m = metric then Some why else None)
    dropped

(* A metric's reported value: [None] where the workload dropped it or
   never sends the metric's verb. *)
let reported (o : Workload.outcome) metric =
  match dropped_reason (Script.name o.Workload.workload) metric with
  | Some _ -> None
  | None -> Option.join (List.assoc_opt metric o.Workload.values)

(* The commit of the checkout, read from [.git] in the working directory
   only; "unknown" outside a git work tree. *)
let git_commit () =
  let read path =
    try Some (String.trim (Drive.read_file (Filename.concat ".git" path)))
    with Sys_error _ -> None
  in
  match read "HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read ref_ with
      | Some sha -> sha
      | None ->
          Option.value ~default:"unknown"
            (Option.bind (read "packed-refs") (fun packed ->
                 List.find_map
                   (fun line ->
                     match String.split_on_char ' ' line with
                     | [ sha; r ] when r = ref_ -> Some sha
                     | _ -> None)
                   (String.split_on_char '\n' packed))))
  | Some sha -> sha
  | None -> "unknown"

let env ~seconds ~smoke =
  J.Obj
    [
      ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", J.Str Sys.ocaml_version);
      ("commit", J.Str (git_commit ()));
      ("server_flags", J.Str (String.concat " " Drive.server_flags));
      ("clients", J.Num (float_of_int Script.clients));
      ("window_s", J.Num seconds);
      ("smoke", J.Bool smoke);
    ]

let value_repr = function
  | Some v -> Printf.sprintf "%.6g" v
  | None -> "n/a"

(* The metric lines of one workload, in {!Metric.defs} order. *)
let lines (o : Workload.outcome) =
  let w = Script.name o.Workload.workload in
  List.map
    (fun (d : Metric.def) ->
      let v =
        match dropped_reason w d.Metric.name with
        | Some _ -> "dropped"
        | None -> value_repr (reported o d.Metric.name)
      in
      Printf.sprintf "%s %s %s %s" w d.Metric.name v d.Metric.unit_)
    Metric.defs

let num v = J.Num v
let int n = J.Num (float_of_int n)
let pairs f l = J.Obj (List.map (fun (k, v) -> (k, f v)) l)

let outcome_json (o : Workload.outcome) =
  let w = Script.name o.Workload.workload in
  J.Obj
    [
      ( "metrics",
        J.Obj
          (List.map
             (fun (d : Metric.def) ->
               let v = Option.fold ~none:J.Null ~some:num (reported o d.Metric.name) in
               (d.Metric.name, J.Obj [ ("value", v); ("unit", J.Str d.Metric.unit_) ]))
             Metric.defs) );
      ( "dropped",
        J.Obj
          (List.filter_map
             (fun (wl, m, why) -> if wl = w then Some (m, J.Str why) else None)
             dropped) );
      ("samples", pairs int o.Workload.samples);
      ("attempted", int o.Workload.attempted);
      ("failed", int o.Workload.failed);
      ("mismatches", int o.Workload.mismatches);
      ("cycles_checked", int o.Workload.checked);
      ("window_s", num o.Workload.window_s);
      ("sizes", pairs num o.Workload.sizes_seen);
    ]

let run_json ~seed outcomes =
  J.Obj
    [
      ("seed", int seed);
      ( "workloads",
        J.Obj
          (List.map
             (fun (o : Workload.outcome) ->
               (Script.name o.Workload.workload, outcome_json o))
             outcomes) );
    ]

let run_set ~label ~env runs =
  J.Obj
    [
      ("format", J.Str "clio-e2e/1");
      ("label", J.Str label);
      ("env", env);
      ("runs", J.Arr runs);
    ]

(* --- compare ------------------------------------------------------------ *)

(* Per (workload, metric), every run's value in one run-set file. *)
let load_set file =
  let j =
    match J.parse (Drive.read_file file) with
    | Ok j -> j
    | Error msg -> failwith (Printf.sprintf "%s: %s" file msg)
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun run ->
      List.iter
        (fun (w, wj) ->
          List.iter
            (fun (m, mj) ->
              match Option.bind (J.member "value" mj) J.to_float with
              | Some v ->
                  let key = (w, m) in
                  Hashtbl.replace tbl key
                    (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
              | None -> ())
            (J.obj_fields (Option.value ~default:J.Null (J.member "metrics" wj))))
        (J.obj_fields (Option.value ~default:J.Null (J.member "workloads" run))))
    (J.arr_items (Option.value ~default:J.Null (J.member "runs" j)));
  tbl

let summary xs =
  match (Metric.median xs, Metric.quartiles xs) with
  | Some m, Some (q1, q3) ->
      Printf.sprintf "%.4g [%.4g, %.4g] (%d)" m q1 q3 (List.length xs)
  | _ -> "-"

type verdict = Same | Within | Improved | Regressed | Changed | Unresolved

let verdict_name = function
  | Same -> "same"
  | Within -> "within bound"
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Changed -> "changed"
  | Unresolved -> "unresolved"

(* A later run set [xs] against the baseline set [base].  Where either
   set's spread is wider than the bound the verdict is unresolved, unless
   every later run beats every baseline run. *)
let verdict (d : Metric.def) base xs =
  let bound = d.Metric.bound in
  match (Metric.median base, Metric.median xs) with
  | None, _ | _, None -> None
  | Some mb, Some mx ->
      let beats x y =
        match d.Metric.better with Metric.Lower -> x < y | _ -> x > y
      in
      let worse =
        match d.Metric.better with
        | Metric.Lower -> mx -. mb
        | Metric.Higher -> mb -. mx
        | Metric.Exact -> Float.abs (mx -. mb)
      in
      let slack = (bound *. Float.abs mb) +. d.Metric.floor in
      let wide s = match Metric.spread s with Some sp -> sp > bound | None -> false in
      Some
        (match d.Metric.better with
        | Metric.Exact -> if worse = 0. then Same else Changed
        | _ when wide base || wide xs ->
            if List.for_all (fun x -> List.for_all (beats x) base) xs then Improved
            else Unresolved
        | _ when worse > slack -> Regressed
        | _ when -.worse > slack -> Improved
        | _ -> Within)

(* Compare run sets against the first: per metric and workload, each
   set's median and quartiles and a verdict against the bound in
   {!Metric.defs}.  Returns the number of regressed or changed verdicts. *)
let compare files =
  let sets = List.map load_set files in
  let regressions = ref 0 in
  Printf.printf "baseline: %s\n" (List.hd files);
  Printf.printf "%-14s %-17s %s | verdict\n" "workload" "metric"
    "median [q1, q3] (runs) per set";
  List.iter
    (fun w ->
      List.iter
        (fun (d : Metric.def) ->
          let w = Script.name w and m = d.Metric.name in
          let per_set =
            List.map (fun t -> Option.value ~default:[] (Hashtbl.find_opt t (w, m))) sets
          in
          match dropped_reason w m with
          | Some why -> Printf.printf "%-14s %-17s dropped (%s)\n" w m why
          | None when List.for_all (( = ) []) per_set -> ()
          | None ->
              let verdicts =
                List.map
                  (fun xs ->
                    match verdict d (List.hd per_set) xs with
                    | Some ((Regressed | Changed) as v) ->
                        incr regressions;
                        verdict_name v
                    | Some v -> verdict_name v
                    | None -> "-")
                  (List.tl per_set)
              in
              Printf.printf "%-14s %-17s %s | %s\n" w m
                (String.concat " | " (List.map summary per_set))
                (String.concat ", " verdicts))
        Metric.defs)
    Script.all;
  !regressions
