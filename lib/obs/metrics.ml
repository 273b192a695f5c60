(* The one reading of the registries and its renderers.  A [snapshot]
   holds every registered counter and histogram; the Prometheus exposition
   ([Prom_export.render]) shows all of them, while the text tables and the
   JSON document show only what was recorded ([nonzero]).

   JSON schema (version 1), the contract with the bench compare harness,
   CI artifacts and ad-hoc jq (docs/observability.md):

   {
     "schema_version": 1,
     "environment":   { "hostname": ..., "ocaml_version": ..., "git_rev": ...,
                        "timestamp": ..., "word_size": ... },
     "counters":      { "<counter name>": <int>, ... },
     "histograms":    { "<name>": { "count", "sum", "mean", "min",
                                    "p50", "p90", "p99", "max" }, ... },
     "spans":         { "<span name>": { "count", "total_ms", "minor_words",
                                         "major_words", "promoted_words" }, ... }
   } *)

type snapshot = {
  counters : (string * int) list;
  histograms : (string * Histogram.stats) list;
  spans : (string * Span.agg) list;
}

let snapshot () =
  {
    counters = List.map (fun c -> (Counter.name c, Counter.value c)) (Counter.all ());
    histograms =
      List.map (fun h -> (Histogram.name h, Histogram.stats h)) (Histogram.all ());
    spans = Span.aggregate (Span.finished ());
  }

let nonzero snap =
  {
    snap with
    counters = List.filter (fun (_, v) -> v <> 0) snap.counters;
    histograms =
      List.filter (fun (_, s) -> s.Histogram.n <> 0) snap.histograms;
  }

let value name =
  match Counter.find name with Some c -> Counter.value c | None -> 0

(* --- text tables --- *)

let counter_lines counters =
  match counters with
  | [] -> [ "(no counters recorded)" ]
  | _ ->
      let width =
        List.fold_left (fun w (n, _) -> max w (String.length n)) 7 counters
      in
      Printf.sprintf "%-*s %12s" width "counter" "value"
      :: String.make (width + 13) '-'
      :: List.map
           (fun (n, v) -> Printf.sprintf "%-*s %12d" width n v)
           counters

let histogram_lines histograms =
  match histograms with
  | [] -> []
  | _ ->
      let width =
        List.fold_left (fun w (n, _) -> max w (String.length n)) 9 histograms
      in
      Printf.sprintf "%-*s %6s %10s %10s %10s %10s %10s" width "histogram" "n"
        "mean" "p50" "p90" "p99" "max"
      :: String.make (width + 67) '-'
      :: List.map
           (fun (n, s) ->
             Printf.sprintf "%-*s %6d %10.3f %10.3f %10.3f %10.3f %10.3f"
               width n s.Histogram.n s.Histogram.mean s.Histogram.p50
               s.Histogram.p90 s.Histogram.p99 s.Histogram.max)
           histograms

(* Allocation per span name ("per algorithm"): how many words each spanned
   operation allocated, across every execution of that span. *)
let alloc_lines spans =
  let spans =
    List.filter
      (fun ((_ : string), (a : Span.agg)) ->
        a.Span.agg_minor_words <> 0.
        || a.Span.agg_major_words <> 0.
        || a.Span.agg_promoted_words <> 0.)
      spans
  in
  match spans with
  | [] -> []
  | _ ->
      let width =
        List.fold_left (fun w (n, _) -> max w (String.length n)) 4 spans
      in
      Printf.sprintf "%-*s %6s %10s %14s %14s %14s" width "span" "n"
        "total ms" "minor words" "major words" "promoted"
      :: String.make (width + 63) '-'
      :: List.map
           (fun (n, (a : Span.agg)) ->
             Printf.sprintf "%-*s %6d %10.3f %14.0f %14.0f %14.0f" width n
               a.Span.spans a.Span.total_ms a.Span.agg_minor_words
               a.Span.agg_major_words a.Span.agg_promoted_words)
           spans

let render_counters () =
  String.concat "\n" (counter_lines (nonzero (snapshot ())).counters)

let render () =
  let snap = nonzero (snapshot ()) in
  let sections =
    [ counter_lines snap.counters ]
    @ (match histogram_lines snap.histograms with [] -> [] | ls -> [ ls ])
    @ match alloc_lines snap.spans with [] -> [] | ls -> [ ls ]
  in
  String.concat "\n\n" (List.map (String.concat "\n") sections)

(* --- JSON --- *)

let schema_version = 1

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* Best effort: metrics must export identically from a tarball, a detached
   worktree or a git checkout, so any failure degrades to "unknown". *)
let git_rev () =
  try
    let ic =
      Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    match (status, String.trim line) with
    | Unix.WEXITED 0, rev when rev <> "" -> rev
    | _ -> "unknown"
  with _ -> "unknown"

let environment () =
  [
    ("hostname", try Unix.gethostname () with _ -> "unknown");
    ("ocaml_version", Sys.ocaml_version);
    ("git_rev", git_rev ());
    ("timestamp", iso8601 (Unix.gettimeofday ()));
    ("word_size", string_of_int Sys.word_size);
  ]

let environment_json () =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) (environment ()))

let counters_json counters =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) counters)

let histogram_json (s : Histogram.stats) =
  Json.Obj
    [
      ("count", Json.Num (float_of_int s.Histogram.n));
      ("sum", Json.Num s.Histogram.sum);
      ("mean", Json.Num s.Histogram.mean);
      ("min", Json.Num s.Histogram.min);
      ("p50", Json.Num s.Histogram.p50);
      ("p90", Json.Num s.Histogram.p90);
      ("p99", Json.Num s.Histogram.p99);
      ("max", Json.Num s.Histogram.max);
    ]

let histograms_json histograms =
  Json.Obj (List.map (fun (k, s) -> (k, histogram_json s)) histograms)

let span_json (a : Span.agg) =
  Json.Obj
    [
      ("count", Json.Num (float_of_int a.Span.spans));
      ("total_ms", Json.Num a.Span.total_ms);
      ("minor_words", Json.Num a.Span.agg_minor_words);
      ("major_words", Json.Num a.Span.agg_major_words);
      ("promoted_words", Json.Num a.Span.agg_promoted_words);
    ]

let to_json snap =
  let snap = nonzero snap in
  Json.Obj
    [
      ("schema_version", Json.Num (float_of_int schema_version));
      ("environment", environment_json ());
      ("counters", counters_json snap.counters);
      ("histograms", histograms_json snap.histograms);
      ("spans", Json.Obj (List.map (fun (k, a) -> (k, span_json a)) snap.spans));
    ]

let write file =
  let oc = open_out file in
  output_string oc (Json.to_string_pretty (to_json (snapshot ())) ^ "\n");
  close_out oc

let reset () =
  Counter.reset_all ();
  Histogram.reset_all ()
