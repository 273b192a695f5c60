(* Diff two bench JSON files (the BENCH_<label>.json documents written by
   bench/main.exe) and decide whether any gated row regressed.

   Rows, per benchmark/workload name present in BOTH files:
   - "time"          — Bechamel time/run (ns) from "benchmarks": printed
                       with its ratio, never gated (wall time does not
                       repeat on a shared machine);
   - "ctr:<counter>" — exact operator counts from "workloads.counters":
                       fail above [counter_limit];
   - "alloc"         — minor words from "workloads.alloc": fail above
                       [alloc_limit], compared only when both documents
                       were built by the same OCaml version (the runtime
                       and stdlib decide how many words a run allocates).

   Names present in only one file are reported but never flagged — adding
   or removing an arm is not a regression. *)

let counter_limit = 1.02
let alloc_limit = 1.25

type regression = {
  name : string;
  metric : string;
  baseline : float;
  current : float;
  ratio : float;
  allowed : float;
}

type outcome = {
  report : string;
  regressions : regression list;
  only_baseline : string list;
  only_current : string list;
}

let ( let* ) = Result.bind

(* --- pulling sections out of a bench document --- *)

let section doc k =
  match Json.member k doc with Some o -> Json.obj_fields o | None -> []

let num_member k o = Option.bind (Json.member k o) Json.to_float

let times doc =
  List.filter_map
    (fun (name, o) -> Option.map (fun f -> (name, f)) (num_member "time_ns" o))
    (section doc "benchmarks")

let workload_counters wl =
  (match Json.member "counters" wl with Some o -> Json.obj_fields o | None -> [])
  |> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))

let workload_minor_words wl =
  Option.bind (Json.member "alloc" wl) (num_member "minor_words")

let ocaml_version doc =
  Option.bind
    (Option.bind (Json.member "environment" doc) (Json.member "ocaml_version"))
    Json.to_str

let check_kind doc file =
  match Json.member "kind" doc with
  | Some (Json.Str "bench") -> Ok ()
  | Some (Json.Str k) ->
      Error (Printf.sprintf "%s: expected a bench file, got kind %S" file k)
  | _ -> Error (Printf.sprintf "%s: missing \"kind\": \"bench\"" file)

let ratio ~baseline ~current =
  if baseline > 0. then current /. baseline
  else if current = 0. then 1.
  else infinity

(* --- the diff --- *)

let pretty_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let shared base cur =
  List.filter_map
    (fun (name, b) -> Option.map (fun c -> (name, b, c)) (List.assoc_opt name cur))
    base

let width init rows =
  List.fold_left (fun w (n, _, _) -> max w (String.length n)) init rows

let diff ~baseline ~current =
  let* () = check_kind baseline "baseline" in
  let* () = check_kind current "current" in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf fmt in
  let regressions = ref [] and gated = ref 0 in

  (* Time table: ratios only. *)
  let base_times = times baseline and cur_times = times current in
  let shared_times = shared base_times cur_times in
  if shared_times <> [] then begin
    let w = width 9 shared_times in
    line "%-*s %12s %12s %7s\n%s\n" w "benchmark" "baseline" "current" "ratio"
      (String.make (w + 34) '-');
    List.iter
      (fun (name, b, c) ->
        line "%-*s %12s %12s %7.2f\n" w name (pretty_ns b) (pretty_ns c)
          (ratio ~baseline:b ~current:c))
      shared_times;
    line "\n"
  end;

  (* Counter and allocation tables, per workload. *)
  let alloc_gated =
    match (ocaml_version baseline, ocaml_version current) with
    | Some b, Some c when String.equal b c -> true
    | b, c ->
        let v = Option.value ~default:"unknown" in
        line "alloc rows skipped: OCaml %s vs %s\n\n" (v b) (v c);
        false
  in
  let base_wl = section baseline "workloads"
  and cur_wl = section current "workloads" in
  let shared_wl = shared base_wl cur_wl in
  if shared_wl <> [] then begin
    let w = width 8 shared_wl in
    line "%-*s %-28s %14s %14s %7s\n%s\n" w "workload" "metric" "baseline"
      "current" "ratio" (String.make (w + 67) '-');
    List.iter
      (fun (name, b, c) ->
        let row metric allowed base cur =
          incr gated;
          let r = ratio ~baseline:base ~current:cur in
          let regressed = r > allowed in
          if regressed then
            regressions :=
              { name; metric; baseline = base; current = cur; ratio = r; allowed }
              :: !regressions;
          line "%-*s %-28s %14.0f %14.0f %7.2f%s\n" w name metric base cur r
            (if regressed then "  REGRESSED" else "")
        in
        let cur_counters = workload_counters c in
        List.iter
          (fun (cname, base) ->
            Option.iter
              (row ("ctr:" ^ cname) counter_limit base)
              (List.assoc_opt cname cur_counters))
          (workload_counters b);
        match (workload_minor_words b, workload_minor_words c) with
        | Some base, Some cur when alloc_gated -> row "alloc" alloc_limit base cur
        | _ -> ())
      shared_wl;
    line "\n"
  end;

  let missing_in other = List.filter (fun n -> not (List.mem_assoc n other)) in
  let only_baseline =
    missing_in cur_times (List.map fst base_times)
    @ missing_in cur_wl (List.map fst base_wl)
  and only_current =
    missing_in base_times (List.map fst cur_times)
    @ missing_in base_wl (List.map fst cur_wl)
  in
  List.iter (line "only in baseline (skipped): %s\n") only_baseline;
  List.iter (line "only in current (skipped): %s\n") only_current;

  let regressions = List.rev !regressions in
  (match regressions with
  | [] -> line "OK: %d gated rows compared, no regression\n" !gated
  | rs -> line "FAIL: %d of %d gated rows regressed\n" (List.length rs) !gated);
  Ok { report = Buffer.contents buf; regressions; only_baseline; only_current }

(* Exit-code contract of bench/compare.exe: 0 = clean, 1 = regression,
   2 = unusable input (decided by the caller). *)
let exit_code outcome = if outcome.regressions = [] then 0 else 1

let ordering_failures ~current pairs =
  let cur_times = times current in
  List.filter_map
    (fun (a, b, ratio) ->
      match (List.assoc_opt a cur_times, List.assoc_opt b cur_times) with
      | Some ta, Some tb when ta *. ratio < tb -> None
      | Some ta, Some tb ->
          Some
            (Printf.sprintf "require-faster: %s (%.0f ns) is not %s %s (%.0f ns)"
               a ta
               (if ratio > 1.0 then Printf.sprintf "%.2fx faster than" ratio
                else "faster than")
               b tb)
      | None, _ -> Some (Printf.sprintf "require-faster: no benchmark %S" a)
      | _, None -> Some (Printf.sprintf "require-faster: no benchmark %S" b))
    pairs
