(* Diff two bench JSON documents and fail on regression.

   Usage:  compare BASELINE.json CURRENT.json [--require-faster A B [RATIO]]...

   Prints the per-row diff tables (time, counters, allocation) and exits
   0 when no gated row regressed, 1 on regression, 2 on unusable input.
   The rules live in Obs.Bench_compare: counter rows fail above 1.02x,
   allocation rows above 1.25x when both documents come from the same
   OCaml version, and time rows are printed, never gated.

   --require-faster A B [RATIO] (repeatable) is the only timing gate: in
   the CURRENT document benchmark A's time_ns must be strictly below
   benchmark B's — an ordering within one run (e.g. cache-on must beat
   cache-off) that no baseline drift can erode.  An optional trailing
   RATIO (a float, e.g. 1.5) strengthens it to "A is at least RATIO times
   faster than B" (time_A * RATIO < time_B). *)

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("compare: " ^ msg); exit 2) fmt

let usage () =
  fail
    "usage: compare BASELINE.json CURRENT.json [--require-faster A B [RATIO]]..."

(* The two files and the --require-faster triples; a trailing float is
   an optional speedup ratio (benchmark names never parse as one). *)
let rec parse_args files pairs = function
  | [] -> (List.rev files, List.rev pairs)
  | "--require-faster" :: a :: b :: rest -> (
      match rest with
      | r :: rest' when float_of_string_opt r <> None ->
          let ratio = float_of_string r in
          if ratio <= 0. then fail "--require-faster ratio must be positive, got %S" r;
          parse_args files ((a, b, ratio) :: pairs) rest'
      | _ -> parse_args files ((a, b, 1.0) :: pairs) rest)
  | "--require-faster" :: _ -> fail "--require-faster needs two benchmark names"
  | a :: _ when String.starts_with ~prefix:"-" a -> fail "unknown option %s" a
  | file :: rest -> parse_args (file :: files) pairs rest

let load file =
  let contents =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error msg -> fail "%s" msg
  in
  match Obs.Json.parse contents with
  | Ok j -> j
  | Error msg -> fail "%s: %s" file msg

let () =
  match parse_args [] [] (List.tl (Array.to_list Sys.argv)) with
  | [ baseline_file; current_file ], pairs -> (
      let baseline = load baseline_file and current = load current_file in
      match Obs.Bench_compare.diff ~baseline ~current with
      | Error msg -> fail "%s" msg
      | Ok outcome ->
          print_string outcome.Obs.Bench_compare.report;
          let ordering = Obs.Bench_compare.ordering_failures ~current pairs in
          List.iter prerr_endline ordering;
          exit (max (Obs.Bench_compare.exit_code outcome) (if ordering = [] then 0 else 1)))
  | _ -> usage ()
