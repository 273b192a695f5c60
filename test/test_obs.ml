(* Tests for lib/obs: span nesting and ordering, GC-allocation deltas,
   counter behaviour under enable/disable, histogram percentiles, trace
   export (including a real JSON parse of the Chrome trace_event output
   with hostile attribute values), the metrics JSON document, the
   Bench_compare regression decision, and an integration check that the
   instrumented pipeline actually emits counters on the paper database. *)

let setup () =
  Obs.enable ();
  Obs.reset ()

let teardown () =
  Obs.disable ();
  Obs.reset ()

let with_obs f () =
  setup ();
  Fun.protect ~finally:teardown f

(* Exporter output is validated by actually parsing it. *)
open Obs.Json

let parse_json = Obs.Json.parse_exn
let member = Obs.Json.member

(* --- spans --- *)

let test_span_nesting =
  with_obs @@ fun () ->
  let r =
    Obs.with_span "outer" (fun () ->
        Obs.with_span "first" (fun () -> ());
        Obs.with_span "second" (fun () -> 41 + 1))
  in
  Alcotest.(check int) "with_span returns the thunk's value" 42 r;
  match Obs.finished_spans () with
  | [ outer ] ->
      Alcotest.(check string) "root name" "outer" (Obs.Span.name outer);
      Alcotest.(check (list string))
        "children in execution order" [ "first"; "second" ]
        (List.map Obs.Span.name (Obs.Span.children outer));
      List.iter
        (fun child ->
          Alcotest.(check bool) "child within parent interval" true
            (Obs.Span.start_s child >= Obs.Span.start_s outer
            && Obs.Span.stop_s child <= Obs.Span.stop_s outer))
        (Obs.Span.children outer);
      Alcotest.(check bool) "duration non-negative" true
        (Obs.Span.duration_s outer >= 0.)
  | roots ->
      Alcotest.failf "expected exactly one root, got %d" (List.length roots)

let test_span_sequencing =
  with_obs @@ fun () ->
  Obs.with_span "a" (fun () -> ());
  Obs.with_span "b" (fun () -> ());
  Alcotest.(check (list string))
    "roots in completion order" [ "a"; "b" ]
    (List.map Obs.Span.name (Obs.finished_spans ()))

let test_span_exception_safety =
  with_obs @@ fun () ->
  (try Obs.with_span "boom" (fun () -> failwith "inner") with Failure _ -> ());
  Obs.with_span "after" (fun () -> ());
  Alcotest.(check (list string))
    "span closed by the exception, stack not corrupted" [ "boom"; "after" ]
    (List.map Obs.Span.name (Obs.finished_spans ()))

let test_span_attrs =
  with_obs @@ fun () ->
  Obs.with_span ~attrs:[ ("k", "v") ] "s" (fun () -> Obs.set_attr "late" "x");
  match Obs.finished_spans () with
  | [ s ] ->
      Alcotest.(check (list (pair string string)))
        "attrs in attachment order"
        [ ("k", "v"); ("late", "x") ]
        (Obs.Span.attrs s)
  | _ -> Alcotest.fail "expected one root"

let test_span_disabled () =
  Obs.disable ();
  Obs.reset ();
  let r = Obs.with_span "ghost" (fun () -> 7) in
  Alcotest.(check int) "thunk still runs" 7 r;
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Obs.finished_spans ()))

(* --- counters --- *)

let test_counter_enable_disable () =
  Obs.disable ();
  Obs.reset ();
  let c = Obs.Counter.make "test.counter" in
  Obs.count c;
  Obs.add c 10;
  Alcotest.(check int) "disabled increments are dropped" 0 (Obs.Counter.value c);
  Obs.enable ();
  Obs.count c;
  Obs.add c 10;
  Alcotest.(check int) "enabled increments accumulate" 11 (Obs.Counter.value c);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c);
  Obs.disable ()

let test_counter_registry () =
  let a = Obs.Counter.make "test.same" in
  let b = Obs.Counter.make "test.same" in
  Alcotest.(check bool) "same name, same handle" true (a == b);
  Alcotest.(check int)
    "Metrics.value reads by name (0 after reset)"
    (Obs.Counter.value a)
    (Obs.Metrics.value "test.same")

let test_histogram =
  with_obs @@ fun () ->
  let h = Obs.Histogram.make "test.hist" in
  List.iter (Obs.observe h) [ 2.0; 4.0; 6.0 ];
  let s = Obs.Histogram.stats h in
  Alcotest.(check int) "n" 3 s.Obs.Histogram.n;
  Alcotest.(check (float 1e-9)) "mean" 4.0 s.Obs.Histogram.mean;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Obs.Histogram.min;
  Alcotest.(check (float 1e-9)) "max" 6.0 s.Obs.Histogram.max

(* --- trace export --- *)

let sample_trace () =
  Obs.with_span "root" (fun () ->
      Obs.with_span ~attrs:[ ("key", "va\"lue\n") ] "child" (fun () -> ()));
  Obs.with_span "tail" (fun () -> ());
  Obs.finished_spans ()

let test_chrome_trace_valid_json =
  with_obs @@ fun () ->
  let spans = sample_trace () in
  let text = Obs.Trace_export.to_chrome spans in
  match parse_json text with
  | Arr events ->
      Alcotest.(check int) "one X event per span" 3 (List.length events);
      List.iter
        (fun e ->
          (match member "ph" e with
          | Some (Str "X") -> ()
          | _ -> Alcotest.fail "every event is a complete (X) event");
          (match member "dur" e with
          | Some (Num d) ->
              Alcotest.(check bool) "dur >= 0" true (d >= 0.)
          | _ -> Alcotest.fail "event lacks dur");
          match member "ts" e with
          | Some (Num _) -> ()
          | _ -> Alcotest.fail "event lacks ts")
        events;
      let names =
        List.filter_map
          (fun e ->
            match member "name" e with Some (Str s) -> Some s | _ -> None)
          events
      in
      Alcotest.(check (list string))
        "preorder: parent before child" [ "root"; "child"; "tail" ] names;
      (* Nesting is encoded by interval containment for X events. *)
      let find name =
        List.find
          (fun e -> member "name" e = Some (Str name))
          events
      in
      let num k e = match member k e with Some (Num f) -> f | _ -> nan in
      let root = find "root" and child = find "child" in
      Alcotest.(check bool) "child interval inside root interval" true
        (num "ts" child >= num "ts" root
        && num "ts" child +. num "dur" child
           <= num "ts" root +. num "dur" root +. 1.0 (* μs rounding *));
      (* Attribute escaping survives a JSON round-trip.  (args also carries
         the span's GC-allocation fields, so look the key up.) *)
      (match member "args" child with
      | Some args -> (
          match member "key" args with
          | Some (Str v) ->
              Alcotest.(check string) "escaped attr value" "va\"lue\n" v
          | _ -> Alcotest.fail "child args lack the attribute")
      | None -> Alcotest.fail "child lacks args")
  | _ -> Alcotest.fail "chrome trace is not a JSON array"

let test_json_lines_valid =
  with_obs @@ fun () ->
  let spans = sample_trace () in
  let lines =
    Obs.Trace_export.to_json_lines spans
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per span" 3 (List.length lines);
  let depths =
    List.map
      (fun l ->
        match member "depth" (parse_json l) with
        | Some (Num d) -> int_of_float d
        | _ -> Alcotest.fail "line lacks depth")
      lines
  in
  Alcotest.(check (list int)) "depths" [ 0; 1; 0 ] depths

let test_text_export =
  with_obs @@ fun () ->
  let spans = sample_trace () in
  let text = Obs.Trace_export.to_text spans in
  Alcotest.(check bool) "mentions root" true
    (String.length text > 0
    && String.split_on_char '\n' text
       |> List.exists (fun l -> String.length l > 0 && l.[0] <> ' '))

(* Every attribute value a hostile caller could pick must survive the
   emit→parse round-trip byte for byte: quotes, backslashes, the C0
   controls (emitted as \uXXXX), DEL, multi-byte UTF-8, and a lone quote
   at either end. *)
let hostile_values =
  [
    "plain";
    "va\"lue";
    "back\\slash";
    "new\nline and \ttab and \rcr";
    "nul\000byte";
    "bell\007 esc\027 unit\031sep";
    "\127del";
    "utf8: é ≤ λ 🙂";
    "\"";
    "\\u0041 is not an escape in the source";
    "trailing backslash \\";
  ]

let test_chrome_trace_hostile_attrs =
  with_obs @@ fun () ->
  Obs.with_span
    ~attrs:(List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) hostile_values)
    "hostile"
    (fun () -> ());
  let text = Obs.Trace_export.to_chrome (Obs.finished_spans ()) in
  match parse_json text with
  | Arr [ e ] ->
      let args =
        match member "args" e with
        | Some a -> a
        | None -> Alcotest.fail "event lacks args"
      in
      List.iteri
        (fun i v ->
          match member (Printf.sprintf "k%d" i) args with
          | Some (Str v') ->
              Alcotest.(check string)
                (Printf.sprintf "hostile value %d round-trips" i)
                v v'
          | _ -> Alcotest.failf "attribute k%d missing" i)
        hostile_values
  | _ -> Alcotest.fail "expected a one-event trace"

let test_json_escape_controls () =
  Alcotest.(check string)
    "C0 controls use \\uXXXX (DEL needs no escape)"
    "\"a\\u0000b\\u001fc\127d\""
    (Obs.Json.quote "a\000b\031c\127d");
  Alcotest.(check string)
    "named escapes preferred" {|"\n\r\t\\\""|}
    (Obs.Json.quote "\n\r\t\\\"")

(* --- histogram percentiles --- *)

let test_histogram_percentiles =
  with_obs @@ fun () ->
  let h = Obs.Histogram.make "test.percentiles" in
  (* 1..100, shuffled deterministically: nearest-rank pN of 1..100 is
     exactly N. *)
  let values = List.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  List.iter (Obs.observe h) values;
  let s = Obs.Histogram.stats h in
  Alcotest.(check int) "n" 100 s.Obs.Histogram.n;
  Alcotest.(check (float 1e-9)) "p50" 50. s.Obs.Histogram.p50;
  Alcotest.(check (float 1e-9)) "p90" 90. s.Obs.Histogram.p90;
  Alcotest.(check (float 1e-9)) "p99" 99. s.Obs.Histogram.p99;
  Alcotest.(check (float 1e-9)) "max" 100. s.Obs.Histogram.max;
  Alcotest.(check (float 1e-9)) "mean" 50.5 s.Obs.Histogram.mean;
  Alcotest.(check (float 1e-9)) "direct percentile query" 25.
    (Obs.Histogram.percentile h 25.)

let test_histogram_percentiles_small =
  with_obs @@ fun () ->
  let h = Obs.Histogram.make "test.single" in
  Obs.observe h 42.;
  let s = Obs.Histogram.stats h in
  List.iter
    (fun (name, v) -> Alcotest.(check (float 1e-9)) name 42. v)
    [
      ("p50 of singleton", s.Obs.Histogram.p50);
      ("p90 of singleton", s.Obs.Histogram.p90);
      ("p99 of singleton", s.Obs.Histogram.p99);
      ("min of singleton", s.Obs.Histogram.min);
      ("max of singleton", s.Obs.Histogram.max);
    ];
  let h2 = Obs.Histogram.make "test.pair" in
  Obs.observe h2 1.;
  Obs.observe h2 3.;
  (* nearest-rank: rank ceil(0.5*2)=1 -> 1.0; ceil(0.9*2)=2 -> 3.0 *)
  Alcotest.(check (float 1e-9)) "p50 of pair" 1. (Obs.Histogram.percentile h2 50.);
  Alcotest.(check (float 1e-9)) "p90 of pair" 3. (Obs.Histogram.percentile h2 90.);
  (* The same convention on a caller's sorted samples (server latencies,
     the load generator). *)
  let rank = Obs.Histogram.nearest_rank in
  Alcotest.(check (float 1e-9)) "empty" 0. (rank [||] 50.);
  Alcotest.(check (float 1e-9)) "p50 of sorted pair" 1. (rank [| 1.; 3. |] 50.);
  Alcotest.(check (float 1e-9)) "p100 is the max" 3. (rank [| 1.; 3. |] 100.);
  Alcotest.(check (float 1e-9)) "p0 is the min" 1. (rank [| 1.; 3. |] 0.)

(* --- histogram reservoir bounds --- *)

let test_histogram_reservoir_bounded =
  with_obs @@ fun () ->
  let cap = Obs.Histogram.reservoir_cap in
  let h = Obs.Histogram.make "test.reservoir" in
  let n = (3 * cap) + 17 in
  (* 1..n shuffled deterministically; a co-prime stride visits each once. *)
  let stride = 104729 in
  for i = 0 to n - 1 do
    Obs.observe h (float_of_int ((i * stride mod n) + 1))
  done;
  let s = Obs.Histogram.stats h in
  Alcotest.(check int) "count stays exact past the cap" n s.Obs.Histogram.n;
  Alcotest.(check (float 1e-6)) "sum stays exact"
    (float_of_int (n * (n + 1) / 2))
    s.Obs.Histogram.sum;
  Alcotest.(check (float 1e-9)) "min stays exact" 1. s.Obs.Histogram.min;
  Alcotest.(check (float 1e-9)) "max stays exact" (float_of_int n)
    s.Obs.Histogram.max;
  Alcotest.(check int) "retention bounded at reservoir_cap" cap
    (Obs.Histogram.sample_count h);
  (* The reservoir is a uniform sample of 1..n: its median estimates n/2.
     With cap=4096 the estimate concentrates well within ±10% — this is a
     determinism-backed bound (the per-name RNG stream is fixed), not a
     probabilistic flake. *)
  let p50 = s.Obs.Histogram.p50 and mid = float_of_int n /. 2. in
  Alcotest.(check bool)
    (Printf.sprintf "reservoir p50 %.0f within 10%% of %.0f" p50 mid)
    true
    (Float.abs (p50 -. mid) <= 0.1 *. mid)

let test_histogram_exact_below_cap =
  with_obs @@ fun () ->
  let h = Obs.Histogram.make "test.exact" in
  let n = Obs.Histogram.reservoir_cap in
  for i = n downto 1 do
    Obs.observe h (float_of_int i)
  done;
  Alcotest.(check int) "all samples retained at the cap" n
    (Obs.Histogram.sample_count h);
  (* Nearest-rank percentiles of 1..n are exact integers. *)
  Alcotest.(check (float 1e-9)) "p50 exact"
    (Float.of_int (int_of_float (ceil (0.50 *. float_of_int n))))
    (Obs.Histogram.percentile h 50.);
  Alcotest.(check (float 1e-9)) "p99 exact"
    (Float.of_int (int_of_float (ceil (0.99 *. float_of_int n))))
    (Obs.Histogram.percentile h 99.)

let test_histogram_bucket_counts =
  with_obs @@ fun () ->
  let h = Obs.Histogram.make "test.buckets" in
  let bounds = Obs.Histogram.bucket_bounds in
  (* One observation exactly on each bound (le is inclusive), plus two
     beyond the last bound (the +Inf overflow slot). *)
  Array.iter (Obs.observe h) bounds;
  Obs.observe h (bounds.(Array.length bounds - 1) *. 10.);
  Obs.observe h infinity;
  let counts = (Obs.Histogram.stats h).Obs.Histogram.buckets in
  Alcotest.(check int) "one slot per bound plus overflow"
    (Array.length bounds + 1)
    (Array.length counts);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "bucket %d" i)
        (if i = Array.length bounds then 2 else 1)
        c)
    counts;
  Alcotest.(check bool) "bounds strictly increasing" true
    (let ok = ref true in
     Array.iteri
       (fun i b -> if i > 0 && b <= bounds.(i - 1) then ok := false)
       bounds;
     !ok)

(* --- Prometheus exposition --- *)

let test_prom_sanitize () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Obs.Prom_export.sanitize_name input))
    [
      ("fj.hits", "clio_fj_hits");
      ("server.queue-depth", "clio_server_queue_depth");
      ("0day", "clio_0day");
      ("weird näme", "clio_weird_n__me");
      ("already_ok:colons", "clio_already_ok:colons");
    ];
  Alcotest.(check string) "label escaping"
    "a\\\\b\\\"c\\nd"
    (Obs.Prom_export.escape_label_value "a\\b\"c\nd")

let test_prom_render_validates =
  with_obs @@ fun () ->
  Obs.add Obs.Names.index_probes 41;
  let h = Obs.Histogram.make "test.prom" in
  List.iter (Obs.observe h) [ 0.02; 0.3; 7.; 1e6 ];
  let gauges =
    [
      { Obs.Prom_export.gauge_name = "sessions.open"; labels = []; value = 3. };
      {
        Obs.Prom_export.gauge_name = "session.requests";
        labels = [ ("session", "s\"1\n") ];
        value = 12.;
      };
    ]
  in
  let text = Obs.Prom_export.render ~gauges (Obs.Metrics.snapshot ()) in
  (match Obs.Prom_export.validate text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "rendered exposition invalid: %s" msg);
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter family present" true
    (has "clio_fulldisj_index_probes_total 41");
  Alcotest.(check bool) "histogram TYPE line" true
    (has "# TYPE clio_test_prom_ms histogram");
  Alcotest.(check bool) "+Inf bucket carries total count" true
    (has "clio_test_prom_ms_bucket{le=\"+Inf\"} 4");
  Alcotest.(check bool) "count line" true (has "clio_test_prom_ms_count 4");
  Alcotest.(check bool) "plain gauge" true (has "clio_sessions_open 3");
  Alcotest.(check bool) "labeled gauge with escaping" true
    (has "clio_session_requests{session=\"s\\\"1\\n\"} 12")

let test_prom_validate_rejects () =
  List.iter
    (fun (label, doc) ->
      match Obs.Prom_export.validate doc with
      | Ok () -> Alcotest.failf "%s unexpectedly valid" label
      | Error _ -> ())
    [
      ("bad metric name", "clio_bad-name 1\n");
      ("unparseable value", "clio_x notanumber\n");
      ( "non-monotone buckets",
        "clio_h_ms_bucket{le=\"1\"} 5\nclio_h_ms_bucket{le=\"2\"} 3\n\
         clio_h_ms_bucket{le=\"+Inf\"} 5\nclio_h_ms_count 5\n" );
      ( "bounds out of order",
        "clio_h_ms_bucket{le=\"2\"} 1\nclio_h_ms_bucket{le=\"1\"} 2\n\
         clio_h_ms_bucket{le=\"+Inf\"} 2\nclio_h_ms_count 2\n" );
      ( "missing +Inf",
        "clio_h_ms_bucket{le=\"1\"} 1\nclio_h_ms_count 1\n" );
      ( "+Inf disagrees with count",
        "clio_h_ms_bucket{le=\"1\"} 1\nclio_h_ms_bucket{le=\"+Inf\"} 1\n\
         clio_h_ms_count 2\n" );
    ];
  match Obs.Prom_export.validate "# just a comment\n\n" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "comments/blank lines must pass: %s" msg

(* --- event log --- *)

let with_temp_log f () =
  let path = Filename.temp_file "clio_test_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".1"; path ^ ".2"; path ^ ".3" ])
    (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_event_log_schema =
  with_temp_log @@ fun path ->
  let log = Obs.Event_log.create ~level:Obs.Event_log.Debug path in
  Obs.Event_log.log log Obs.Event_log.Info "request.complete"
    [ ("trace_id", Str "t-1"); ("latency_ms", Num 1.5) ];
  Obs.Event_log.log log Obs.Event_log.Warn "request.overload" [];
  Obs.Event_log.close log;
  match List.map parse_json (read_lines path) with
  | [ first; second ] ->
      Alcotest.(check bool) "v is the schema version" true
        (member "v" first
        = Some (Num (float_of_int Obs.Event_log.schema_version)));
      (match member "ts" first with
      | Some (Num ts) ->
          Alcotest.(check bool) "ts is a plausible epoch in ms" true
            (ts > 1e12 && Float.is_integer ts)
      | _ -> Alcotest.fail "first line lacks ts");
      Alcotest.(check bool) "level rendered" true
        (member "level" first = Some (Str "info"));
      Alcotest.(check bool) "event rendered" true
        (member "event" first = Some (Str "request.complete"));
      Alcotest.(check bool) "custom fields follow" true
        (member "trace_id" first = Some (Str "t-1")
        && member "latency_ms" first = Some (Num 1.5));
      Alcotest.(check bool) "second line is the warn" true
        (member "level" second = Some (Str "warn"))
  | lines -> Alcotest.failf "expected 2 lines, got %d" (List.length lines)

let test_event_log_level_filter =
  with_temp_log @@ fun path ->
  let log = Obs.Event_log.create ~level:Obs.Event_log.Warn path in
  Alcotest.(check bool) "debug below threshold" false
    (Obs.Event_log.would_log log Obs.Event_log.Debug);
  Alcotest.(check bool) "error above threshold" true
    (Obs.Event_log.would_log log Obs.Event_log.Error);
  Obs.Event_log.log log Obs.Event_log.Debug "dropped" [];
  Obs.Event_log.log log Obs.Event_log.Info "dropped too" [];
  Obs.Event_log.log log Obs.Event_log.Error "kept" [];
  Obs.Event_log.close log;
  Alcotest.(check int) "only the error line written" 1
    (List.length (read_lines path))

let test_event_log_rotation =
  with_temp_log @@ fun path ->
  (* Tiny threshold: every couple of lines forces a rotation; with keep=2
     only the live file and path.1 may exist afterwards. *)
  let log = Obs.Event_log.create ~max_bytes:256 ~keep:2 path in
  for i = 1 to 50 do
    Obs.Event_log.log log Obs.Event_log.Info "tick"
      [ ("i", Num (float_of_int i)); ("pad", Str (String.make 40 'x')) ]
  done;
  Obs.Event_log.close log;
  Alcotest.(check bool) "live file exists" true (Sys.file_exists path);
  Alcotest.(check bool) "one rotated file kept" true
    (Sys.file_exists (path ^ ".1"));
  Alcotest.(check bool) "older rotations dropped" false
    (Sys.file_exists (path ^ ".2"));
  (* Both surviving files still hold only complete, parseable lines. *)
  List.iter
    (fun p ->
      List.iter (fun l -> ignore (parse_json l)) (read_lines p))
    [ path; path ^ ".1" ]

let test_event_log_empty_path () =
  match Obs.Event_log.create "" with
  | exception Invalid_argument _ -> ()
  | log ->
      Obs.Event_log.close log;
      Alcotest.fail "empty path accepted"

(* Any event name and field set a caller could pick must produce a line
   that parses back to exactly the fields written (the strict Json printer
   is doing the escaping). *)
let fuzz_event_log_roundtrip =
  QCheck2.Test.make ~name:"event-log lines round-trip through strict Json"
    ~count:100
    QCheck2.Gen.(
      pair (string_size (int_bound 20))
        (small_list (pair (string_size (int_bound 10)) (string_size (int_bound 30)))))
    (fun (event, fields) ->
      (* Field keys must not collide with the four standard keys or each
         other — the log writes them verbatim. *)
      let reserved = [ "v"; "ts"; "level"; "event" ] in
      let fields =
        List.filteri
          (fun i (k, _) ->
            (not (List.mem k reserved))
            && not (List.exists (fun (k', _) -> k' = k)
                      (List.filteri (fun j _ -> j < i) fields)))
          fields
      in
      let path = Filename.temp_file "clio_fuzz_log" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let log = Obs.Event_log.create path in
          Obs.Event_log.log log Obs.Event_log.Info event
            (List.map (fun (k, v) -> (k, Obs.Json.Str v)) fields);
          Obs.Event_log.close log;
          match read_lines path with
          | [ line ] ->
              let doc = parse_json line in
              member "event" doc = Some (Str event)
              && List.for_all
                   (fun (k, v) -> member k doc = Some (Str v))
                   fields
          | _ -> false))

(* --- request scopes --- *)

let test_scope_captures =
  with_obs @@ fun () ->
  let c = Obs.Counter.make "test.scope.counter" in
  Alcotest.(check (option string)) "no scope outside run" None
    (Obs.Scope.current ());
  let v, record =
    Obs.Scope.run ~attrs:[ ("op", "ping") ] ~trace_id:"tid-1" "server.request"
      (fun () ->
        Alcotest.(check (option string)) "current inside the scope"
          (Some "tid-1") (Obs.Scope.current ());
        Obs.add c 3;
        Obs.with_span "inner.work" (fun () -> ());
        17)
  in
  Alcotest.(check int) "thunk value" 17 v;
  Alcotest.(check string) "trace id" "tid-1" record.Obs.Scope.trace_id;
  Alcotest.(check bool) "duration measured" true
    (record.Obs.Scope.duration_ms >= 0.);
  Alcotest.(check (option int)) "counter delta captured" (Some 3)
    (List.assoc_opt "test.scope.counter" record.Obs.Scope.deltas);
  (match record.Obs.Scope.root with
  | Some root ->
      Alcotest.(check string) "captured root name" "server.request"
        (Obs.Span.name root);
      Alcotest.(check (option string)) "trace id attr on the root"
        (Some "tid-1")
        (List.assoc_opt "trace_id" (Obs.Span.attrs root));
      Alcotest.(check (list string)) "subtree travels with the root"
        [ "inner.work" ]
        (List.map Obs.Span.name (Obs.Span.children root))
  | None -> Alcotest.fail "enabled scope must capture its root");
  (* The captured subtree is detached: a long-lived server's global trace
     does not grow per request. *)
  Alcotest.(check int) "global trace empty after the scope" 0
    (List.length (Obs.finished_spans ()));
  Alcotest.(check (option string)) "scope popped" None (Obs.Scope.current ())

let test_scope_disabled_is_cheap () =
  Obs.disable ();
  Obs.reset ();
  let v, record = Obs.Scope.run ~trace_id:"t" "req" (fun () -> 5) in
  Alcotest.(check int) "thunk runs" 5 v;
  Alcotest.(check bool) "no captured root when disabled" true
    (record.Obs.Scope.root = None);
  Alcotest.(check int) "no deltas when disabled" 0
    (List.length record.Obs.Scope.deltas)

let test_scope_fresh_ids_unique () =
  let ids = List.init 1000 (fun _ -> Obs.Scope.fresh_id ()) in
  Alcotest.(check int) "1000 fresh ids, 1000 distinct" 1000
    (List.length (List.sort_uniq compare ids))

(* --- allocation-aware spans --- *)

(* Keep the allocation out of the minor heap's noise floor. *)
let churn words =
  let rec go acc i = if i = 0 then acc else go (i :: acc) (i - 1) in
  ignore (Sys.opaque_identity (go [] (words / 3)))

let test_span_alloc_positive =
  with_obs @@ fun () ->
  Obs.with_span "alloc" (fun () -> churn 90_000);
  match Obs.finished_spans () with
  | [ s ] ->
      Alcotest.(check bool) "minor words counted" true
        (Obs.Span.minor_words s >= 30_000.);
      Alcotest.(check bool) "allocated_words positive" true
        (Obs.Span.allocated_words s > 0.)
  | _ -> Alcotest.fail "expected one root"

let test_span_alloc_nesting_monotonic =
  with_obs @@ fun () ->
  (* GC counters are monotonic, so a child's delta can never exceed its
     enclosing parent's — whatever the collector does meanwhile. *)
  Obs.with_span "parent" (fun () ->
      Obs.with_span "child1" (fun () -> churn 60_000);
      churn 30_000;
      Obs.with_span "child2" (fun () -> churn 60_000));
  match Obs.finished_spans () with
  | [ parent ] ->
      let pa = Obs.Span.alloc parent in
      let children = Obs.Span.children parent in
      Alcotest.(check int) "two children" 2 (List.length children);
      let sum =
        List.fold_left
          (fun acc c -> acc +. Obs.Span.minor_words c)
          0. children
      in
      List.iter
        (fun c ->
          let ca = Obs.Span.alloc c in
          Alcotest.(check bool) "child minor <= parent minor" true
            (ca.Obs.Span.minor_words <= pa.Obs.Span.minor_words);
          Alcotest.(check bool) "child major <= parent major" true
            (ca.Obs.Span.major_words <= pa.Obs.Span.major_words);
          Alcotest.(check bool) "child promoted <= parent promoted" true
            (ca.Obs.Span.promoted_words <= pa.Obs.Span.promoted_words);
          Alcotest.(check bool) "deltas non-negative" true
            (ca.Obs.Span.minor_words >= 0.
            && ca.Obs.Span.major_words >= 0.
            && ca.Obs.Span.promoted_words >= 0.))
        children;
      Alcotest.(check bool) "children's minor sum <= parent's" true
        (sum <= pa.Obs.Span.minor_words);
      Alcotest.(check bool) "parent saw its own churn too" true
        (pa.Obs.Span.minor_words >= sum +. 10_000.)
  | _ -> Alcotest.fail "expected one root"

let test_span_agg_alloc =
  with_obs @@ fun () ->
  Obs.with_span "work" (fun () -> churn 30_000);
  Obs.with_span "work" (fun () -> churn 30_000);
  match Obs.Span.aggregate (Obs.finished_spans ()) with
  | [ ("work", agg) ] ->
      Alcotest.(check int) "two spans aggregated" 2 agg.Obs.Span.spans;
      Alcotest.(check bool) "aggregate minor words accumulate" true
        (agg.Obs.Span.agg_minor_words >= 20_000.)
  | aggs -> Alcotest.failf "expected one aggregate, got %d" (List.length aggs)

(* --- the metrics JSON: one snapshot, recorded entries only --- *)

let test_metrics_json_full_state =
  with_obs @@ fun () ->
  Obs.count Obs.Names.subsumption_checks;
  Obs.add Obs.Names.index_probes 41;
  let h = Obs.Histogram.make "test.rt" in
  List.iter (Obs.observe h) [ 1.; 2.; 3.; 10. ];
  Obs.with_span "rt.outer" (fun () ->
      Obs.with_span "rt.inner" (fun () -> churn 30_000));
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "the snapshot holds unrecorded counters too" true
    (List.mem_assoc (Obs.Counter.name Obs.Names.assoc_kept)
       snap.Obs.Metrics.counters);
  let file = Filename.temp_file "clio_metrics" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Obs.write_metrics file;
  let doc =
    let ic = open_in_bin file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    parse_json text
  in
  let section k =
    match member k doc with
    | Some (Obj kvs) -> kvs
    | _ -> Alcotest.failf "missing section %s" k
  in
  Alcotest.(check bool) "schema_version 1" true
    (member "schema_version" doc = Some (Num 1.));
  Alcotest.(check (list string))
    "environment fields"
    [ "hostname"; "ocaml_version"; "git_rev"; "timestamp"; "word_size" ]
    (List.map fst (section "environment"));
  Alcotest.(check (list (pair string int)))
    "counters = the snapshot's non-zero counters, in order"
    Obs.Metrics.(nonzero snap).counters
    (List.map
       (function
         | k, Num v -> (k, int_of_float v)
         | k, _ -> Alcotest.failf "counter %s is not a number" k)
       (section "counters"));
  (match List.assoc_opt "test.rt" (section "histograms") with
  | Some s ->
      Alcotest.(check bool) "histogram count and p99" true
        (member "count" s = Some (Num 4.) && member "p99" s = Some (Num 10.))
  | None -> Alcotest.fail "recorded histogram missing");
  Alcotest.(check bool) "empty histograms are dropped" true
    (List.for_all
       (fun (_, s) -> member "count" s <> Some (Num 0.))
       (section "histograms"));
  match List.assoc_opt "rt.inner" (section "spans") with
  | Some a ->
      Alcotest.(check bool) "span rollup count and allocation" true
        (member "count" a = Some (Num 1.)
        &&
        match member "minor_words" a with
        | Some (Num w) -> w >= 20_000.
        | _ -> false)
  | None -> Alcotest.fail "span rollup missing"

(* --- hostile-input fuzzing of the Json parser ---

   Json frames now arrive over clio_serve's socket from arbitrary peers,
   so the parser must be total: any byte string yields [Ok] or [Error],
   never an exception (Stack_overflow included) and never a hang. *)

let parse_total s =
  match Obs.Json.parse s with Ok _ -> true | Error _ -> true

let test_json_hostile_nesting () =
  (* 100k unclosed '['s: an error, not a stack overflow. *)
  (match Obs.Json.parse (String.make 100_000 '[') with
  | Ok _ -> Alcotest.fail "unterminated arrays accepted"
  | Error _ -> ());
  let deep n = String.make n '[' ^ "1" ^ String.make n ']' in
  (match Obs.Json.parse (deep (Obs.Json.max_depth + 50)) with
  | Ok _ -> Alcotest.fail "nesting beyond max_depth accepted"
  | Error msg ->
      Alcotest.(check bool) "depth error mentions nesting" true
        (String.length msg > 0));
  match Obs.Json.parse (deep 100) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "depth 100 should parse: %s" msg

let test_json_hostile_numbers () =
  (* Overflowing/underflowing literals must not raise; what they decode
     to (infinity is fine for a diagnostics format) is emit's problem. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "total on %s" s) true
        (parse_total s))
    [
      "1e309";
      "-1e309";
      "1e-400";
      String.make 5000 '9';
      "1e999999999";
      "-0.0000000000000000000000000001";
      "9007199254740993";
    ]

let json_gen : Obs.Json.t QCheck2.Gen.t =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Obs.Json.Null;
              map (fun b -> Obs.Json.Bool b) bool;
              map (fun f -> Obs.Json.Num f) (float_bound_inclusive 1e6);
              map (fun s -> Obs.Json.Str s) (string_size (int_bound 12));
            ]
        in
        if n <= 0 then leaf
        else
          oneof
            [
              leaf;
              map
                (fun l -> Obs.Json.Arr l)
                (list_size (int_bound 4) (self (n / 2)));
              map
                (fun l -> Obs.Json.Obj l)
                (list_size (int_bound 4)
                   (pair (string_size (int_bound 8)) (self (n / 2))));
            ]))

let fuzz_json_random_bytes =
  QCheck2.Test.make ~name:"parser total on random bytes" ~count:1000
    QCheck2.Gen.(string_size (int_bound 300))
    parse_total

let fuzz_json_truncated_mutated =
  QCheck2.Test.make ~name:"parser total on truncated/corrupted documents"
    ~count:500
    QCheck2.Gen.(triple json_gen (int_bound 10_000) (int_bound 255))
    (fun (doc, cut, byte) ->
      let s = Obs.Json.to_string doc in
      let truncated = String.sub s 0 (min cut (String.length s)) in
      let mutated =
        if s = "" then s
        else begin
          let b = Bytes.of_string s in
          Bytes.set b (cut mod Bytes.length b) (Char.chr byte);
          Bytes.to_string b
        end
      in
      parse_total truncated && parse_total mutated)

(* --- Bench_compare --- *)

let bench_doc ~time_ns ~checks ~minor =
  Obj
    [
      ("schema_version", Num 1.);
      ("kind", Str "bench");
      ("label", Str "test");
      ( "benchmarks",
        Obj
          [
            ("b/one", Obj [ ("time_ns", Num time_ns) ]);
            ("b/only-here", Obj [ ("time_ns", Num 1.) ]);
          ] );
      ( "workloads",
        Obj
          [
            ( "w/one",
              Obj
                [
                  ("counters", Obj [ ("subs.checks", Num checks) ]);
                  ( "alloc",
                    Obj
                      [
                        ("minor_words", Num minor);
                        ("major_words", Num 0.);
                        ("promoted_words", Num 0.);
                      ] );
                  ("histograms", Obj []);
                ] );
          ] );
    ]

let diff_exn ?tolerance ~baseline ~current () =
  match Obs.Bench_compare.diff ?tolerance ~baseline ~current () with
  | Ok o -> o
  | Error msg -> Alcotest.failf "diff failed: %s" msg

let test_compare_no_regression () =
  let baseline = bench_doc ~time_ns:1000. ~checks:500. ~minor:10_000. in
  (* Within every default tolerance: time +20% (<50%), counters equal,
     alloc +10% (<25%). *)
  let current = bench_doc ~time_ns:1200. ~checks:500. ~minor:11_000. in
  let o = diff_exn ~baseline ~current () in
  Alcotest.(check int) "no regressions" 0
    (List.length o.Obs.Bench_compare.regressions);
  Alcotest.(check int) "exit 0" 0
    (Obs.Bench_compare.exit_code ~report_only:false o);
  Alcotest.(check bool) "report says OK" true
    (let r = o.Obs.Bench_compare.report in
     String.length r >= 2
     &&
     let rec contains i =
       i + 2 <= String.length r
       && (String.sub r i 2 = "OK" || contains (i + 1))
     in
     contains 0)

let test_compare_regression () =
  let baseline = bench_doc ~time_ns:1000. ~checks:500. ~minor:10_000. in
  (* Time x2 (>1.5), counter +10% (>1.02), alloc x2 (>1.25): all three
     metrics must be flagged. *)
  let current = bench_doc ~time_ns:2000. ~checks:550. ~minor:20_000. in
  let o = diff_exn ~baseline ~current () in
  Alcotest.(check (list string))
    "all three metrics flagged"
    [ "time"; "ctr:subs.checks"; "alloc" ]
    (List.map (fun r -> r.Obs.Bench_compare.metric)
       o.Obs.Bench_compare.regressions);
  Alcotest.(check int) "exit 1" 1
    (Obs.Bench_compare.exit_code ~report_only:false o);
  Alcotest.(check int) "report-only still exits 0" 0
    (Obs.Bench_compare.exit_code ~report_only:true o);
  (* A looser tolerance waves the same diff through. *)
  let o' =
    diff_exn
      ~tolerance:{ Obs.Bench_compare.time = 3.; counter = 2.; alloc = 3. }
      ~baseline ~current ()
  in
  Alcotest.(check int) "custom tolerance clears it" 0
    (List.length o'.Obs.Bench_compare.regressions)

let test_compare_disjoint_names () =
  let baseline = bench_doc ~time_ns:1000. ~checks:500. ~minor:10_000. in
  let current =
    Obj
      [
        ("schema_version", Num 1.);
        ("kind", Str "bench");
        ("benchmarks", Obj [ ("b/new", Obj [ ("time_ns", Num 5. ) ]) ]);
        ("workloads", Obj []);
      ]
  in
  let o = diff_exn ~baseline ~current () in
  Alcotest.(check int) "nothing compared regresses" 0
    (List.length o.Obs.Bench_compare.regressions);
  Alcotest.(check bool) "baseline-only names reported" true
    (List.mem "b/one" o.Obs.Bench_compare.only_baseline);
  Alcotest.(check bool) "current-only names reported" true
    (List.mem "b/new" o.Obs.Bench_compare.only_current)

let test_compare_rejects_non_bench () =
  match
    Obs.Bench_compare.diff
      ~baseline:(Obj [ ("kind", Str "bench"); ("schema_version", Num 1.) ])
      ~current:(Obj [ ("kind", Str "metrics") ])
      ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-bench input accepted"

(* --- integration with the pipeline --- *)

let test_pipeline_counters =
  with_obs @@ fun () ->
  let db = Paperdata.Figure1.database in
  let m = Paperdata.Running.mapping in
  let exs = Clio.Mapping_eval.examples (Clio.Eval_ctx.transient db) m in
  Alcotest.(check bool) "examples computed" true (List.length exs > 0);
  Alcotest.(check bool) "nonzero fulldisj.subsumption_checks" true
    (Obs.Metrics.value "fulldisj.subsumption_checks" > 0);
  Alcotest.(check int) "examples counter matches result"
    (List.length exs)
    (Obs.Metrics.value "mapping_eval.examples");
  (* Spans of the whole evaluation pipeline are present and nested. *)
  match Obs.finished_spans () with
  | [ root ] ->
      Alcotest.(check string) "root span" "mapping_eval.examples"
        (Obs.Span.name root);
      let rec names s =
        Obs.Span.name s :: List.concat_map names (Obs.Span.children s)
      in
      let all = names root in
      List.iter
        (fun expected ->
          Alcotest.(check bool) (expected ^ " span present") true
            (List.mem expected all))
        [
          "mapping_eval.data_associations";
          "fulldisj.compute";
          "fulldisj.min_union";
        ]
  | roots ->
      Alcotest.failf "expected one root span, got %d" (List.length roots)

let test_pipeline_disabled_is_silent () =
  Obs.disable ();
  Obs.reset ();
  let db = Paperdata.Figure1.database in
  let m = Paperdata.Running.mapping in
  ignore (Clio.Mapping_eval.examples (Clio.Eval_ctx.transient db) m);
  Alcotest.(check int) "no counters when disabled" 0
    (List.length Obs.Metrics.(nonzero (snapshot ())).counters);
  Alcotest.(check int) "no spans when disabled" 0
    (List.length (Obs.finished_spans ()))

let test_names_are_authoritative () =
  (* Every counter the bench/CLI read by name is registered by Obs.Names. *)
  List.iter
    (fun c ->
      match Obs.Counter.find (Obs.Counter.name c) with
      | Some c' -> Alcotest.(check bool) "registered" true (c == c')
      | None -> Alcotest.failf "%s not registered" (Obs.Counter.name c))
    [
      Obs.Names.subsumption_checks;
      Obs.Names.index_probes;
      Obs.Names.eval_examples;
      Obs.Names.chase_occurrences;
      Obs.Names.illustration_selected;
    ]

let test_explain_counters =
  with_obs @@ fun () ->
  let db = Paperdata.Figure1.database in
  let m = Paperdata.Running.mapping in
  let ex =
    List.find (fun e -> e.Clio.Example.positive)
      (Clio.Mapping_eval.examples (Clio.Eval_ctx.transient db) m)
  in
  Obs.reset ();
  let ds = Clio.Explain.of_target_tuple (Clio.Eval_ctx.transient db) m ex.Clio.Example.target_tuple in
  Alcotest.(check bool) "found a derivation" true (List.length ds > 0);
  Alcotest.(check int) "explain.derivations counts them"
    (List.length ds)
    (Obs.Metrics.value "explain.derivations");
  Alcotest.(check bool) "explain.tuples_matched covers the scan" true
    (Obs.Metrics.value "explain.tuples_matched" >= List.length ds);
  match Obs.finished_spans () with
  | [ s ] ->
      Alcotest.(check string) "explain runs under its span"
        Obs.Names.sp_explain (Obs.Span.name s)
  | roots -> Alcotest.failf "expected one root span, got %d" (List.length roots)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "obs"
    [
      ( "span",
        [
          tc "nesting and ordering" `Quick test_span_nesting;
          tc "sequential roots" `Quick test_span_sequencing;
          tc "exception safety" `Quick test_span_exception_safety;
          tc "attributes" `Quick test_span_attrs;
          tc "disabled records nothing" `Quick test_span_disabled;
        ] );
      ( "alloc",
        [
          tc "span counts its allocation" `Quick test_span_alloc_positive;
          tc "nested deltas are monotonic" `Quick
            test_span_alloc_nesting_monotonic;
          tc "per-name aggregation sums alloc" `Quick test_span_agg_alloc;
        ] );
      ( "counter",
        [
          tc "enable/disable totals" `Quick test_counter_enable_disable;
          tc "registry dedups handles" `Quick test_counter_registry;
          tc "histogram stats" `Quick test_histogram;
          tc "percentiles on a known distribution" `Quick
            test_histogram_percentiles;
          tc "percentiles on tiny samples" `Quick
            test_histogram_percentiles_small;
          tc "names are authoritative" `Quick test_names_are_authoritative;
        ] );
      ( "reservoir",
        [
          tc "memory bounded past the cap, aggregates exact" `Quick
            test_histogram_reservoir_bounded;
          tc "percentiles exact at the cap" `Quick
            test_histogram_exact_below_cap;
          tc "exposition bucket counts exact" `Quick
            test_histogram_bucket_counts;
        ] );
      ( "prometheus",
        [
          tc "name sanitization and label escaping" `Quick test_prom_sanitize;
          tc "render passes its own validator" `Quick
            test_prom_render_validates;
          tc "validator rejects malformed expositions" `Quick
            test_prom_validate_rejects;
        ] );
      ( "event-log",
        [
          tc "line schema v1" `Quick test_event_log_schema;
          tc "level filtering" `Quick test_event_log_level_filter;
          tc "size rotation keeps the newest files" `Quick
            test_event_log_rotation;
          tc "empty path rejected" `Quick test_event_log_empty_path;
          QCheck_alcotest.to_alcotest ~long:false fuzz_event_log_roundtrip;
        ] );
      ( "scope",
        [
          tc "captures deltas and a detached subtree" `Quick
            test_scope_captures;
          tc "disabled scope measures only duration" `Quick
            test_scope_disabled_is_cheap;
          tc "fresh ids are unique" `Quick test_scope_fresh_ids_unique;
        ] );
      ( "export",
        [
          tc "chrome trace is valid JSON of X events" `Quick
            test_chrome_trace_valid_json;
          tc "hostile attr values survive the round-trip" `Quick
            test_chrome_trace_hostile_attrs;
          tc "control characters escape as \\uXXXX" `Quick
            test_json_escape_controls;
          tc "json lines parse with depths" `Quick test_json_lines_valid;
          tc "text export" `Quick test_text_export;
        ] );
      ( "json-fuzz",
        [
          tc "hostile nesting" `Quick test_json_hostile_nesting;
          tc "hostile numbers" `Quick test_json_hostile_numbers;
          QCheck_alcotest.to_alcotest ~long:false fuzz_json_random_bytes;
          QCheck_alcotest.to_alcotest ~long:false fuzz_json_truncated_mutated;
        ] );
      ( "metrics-export",
        [
          tc "full state round-trips through JSON" `Quick
            test_metrics_json_full_state;
        ] );
      ( "bench-compare",
        [
          tc "within tolerance passes" `Quick test_compare_no_regression;
          tc "beyond tolerance fails with exit 1" `Quick
            test_compare_regression;
          tc "disjoint names are reported, not flagged" `Quick
            test_compare_disjoint_names;
          tc "non-bench input is an error" `Quick test_compare_rejects_non_bench;
        ] );
      ( "pipeline",
        [
          tc "paper-db examples emit counters and spans" `Quick
            test_pipeline_counters;
          tc "disabled pipeline is silent" `Quick
            test_pipeline_disabled_is_silent;
          tc "explain emits derivation counters" `Quick test_explain_counters;
        ] );
    ]
