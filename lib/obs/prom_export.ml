(* Prometheus text exposition (format version 0.0.4) of a metrics
   snapshot.  Counters become [clio_<name>_total], histograms
   [clio_<name>_ms] with cumulative [_bucket{le=...}] lines built from the
   exact per-bucket counts the snapshot carries (independent of the
   percentile reservoir), and caller-supplied gauges carry label sets (the
   server's per-session stats).  Everything is emitted in registry
   registration order so two scrapes of the same process differ only in
   values. *)

type gauge = {
  gauge_name : string;
  labels : (string * string) list;
  value : float;
}

let gauge ?(labels = []) gauge_name value = { gauge_name; labels; value }

let prefix = "clio_"

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

(* Map an Obs registry name ("cache.fj.hits") onto the Prometheus metric
   charset: invalid characters become '_', a leading digit gets guarded,
   and the [clio_] namespace prefix is prepended (which also guards the
   leading digit). *)
let sanitize_name name =
  let b = Buffer.create (String.length name + String.length prefix) in
  Buffer.add_string b prefix;
  String.iter (fun c -> Buffer.add_char b (if is_name_char c then c else '_')) name;
  Buffer.contents b

(* Label values escape backslash, double quote and newline. *)
let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
      let body =
        String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\""
                 (let s = sanitize_name k in
                  (* labels are not namespaced *)
                  String.sub s (String.length prefix)
                    (String.length s - String.length prefix))
                 (escape_label_value v))
             labels)
      in
      "{" ^ body ^ "}"

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let render_counter b (name, v) =
  let name = sanitize_name name ^ "_total" in
  Printf.bprintf b "# TYPE %s counter\n" name;
  Printf.bprintf b "%s %d\n" name v

let render_histogram b (name, (st : Histogram.stats)) =
  let name = sanitize_name name ^ "_ms" in
  Printf.bprintf b "# TYPE %s histogram\n" name;
  let cum = ref 0 in
  Array.iteri
    (fun i le ->
      cum := !cum + st.Histogram.buckets.(i);
      Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" name (num le) !cum)
    Histogram.bucket_bounds;
  Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" name st.Histogram.n;
  Printf.bprintf b "%s_sum %s\n" name (num st.Histogram.sum);
  Printf.bprintf b "%s_count %d\n" name st.Histogram.n

let render_gauge_family b name gauges =
  let pname = sanitize_name name in
  Printf.bprintf b "# TYPE %s gauge\n" pname;
  List.iter
    (fun g ->
      Printf.bprintf b "%s%s %s\n" pname (render_labels g.labels) (num g.value))
    gauges

let render ?(gauges = []) (snap : Metrics.snapshot) =
  let b = Buffer.create 4096 in
  List.iter (render_counter b) snap.Metrics.counters;
  List.iter (render_histogram b) snap.Metrics.histograms;
  (* Group gauges by name, preserving first-appearance order, so each
     family gets exactly one TYPE line. *)
  let order : string list ref = ref [] in
  let by_name : (string, gauge list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun g ->
      (match Hashtbl.find_opt by_name g.gauge_name with
      | None ->
          order := g.gauge_name :: !order;
          Hashtbl.replace by_name g.gauge_name [ g ]
      | Some gs -> Hashtbl.replace by_name g.gauge_name (g :: gs)))
    gauges;
  List.iter
    (fun name ->
      render_gauge_family b name (List.rev (Hashtbl.find by_name name)))
    (List.rev !order);
  Buffer.contents b

(* --- validator ------------------------------------------------------- *)

let valid_metric_name name =
  name <> ""
  && (let c = name.[0] in
      not (c >= '0' && c <= '9'))
  && String.for_all is_name_char name

(* Split a sample line into (metric name, le label if any, value).  Only
   the [le] label matters to the checks; other labels are skipped over
   respecting escapes. *)
let parse_sample line =
  let fail msg = Error (Printf.sprintf "%s: %s" msg line) in
  match String.index_opt line '{' with
  | None -> (
      match String.index_opt line ' ' with
      | None -> fail "sample line without value"
      | Some sp -> (
          let name = String.sub line 0 sp in
          let v = String.sub line (sp + 1) (String.length line - sp - 1) in
          match float_of_string_opt (String.trim v) with
          | None -> fail "unparseable sample value"
          | Some f -> Ok (name, None, f)))
  | Some ob -> (
      let name = String.sub line 0 ob in
      (* scan to the matching close brace, respecting quoted strings *)
      let n = String.length line in
      let rec find_close i in_str =
        if i >= n then None
        else
          match line.[i] with
          | '\\' when in_str -> find_close (i + 2) in_str
          | '"' -> find_close (i + 1) (not in_str)
          | '}' when not in_str -> Some i
          | _ -> find_close (i + 1) in_str
      in
      match find_close (ob + 1) false with
      | None -> fail "unterminated label set"
      | Some cb -> (
          let labels = String.sub line (ob + 1) (cb - ob - 1) in
          let le =
            (* find le="..." among the labels *)
            let rec scan i =
              if i + 4 > String.length labels then None
              else if
                (i = 0 || labels.[i - 1] = ',')
                && i + 4 <= String.length labels
                && String.sub labels i 4 = "le=\""
              then
                let j = ref (i + 4) in
                let bnd = String.length labels in
                let buf = Buffer.create 8 in
                let rec copy () =
                  if !j >= bnd then None
                  else
                    match labels.[!j] with
                    | '\\' when !j + 1 < bnd ->
                        Buffer.add_char buf labels.[!j + 1];
                        j := !j + 2;
                        copy ()
                    | '"' -> Some (Buffer.contents buf)
                    | c ->
                        Buffer.add_char buf c;
                        incr j;
                        copy ()
                in
                copy ()
              else scan (i + 1)
            in
            scan 0
          in
          let rest = String.sub line (cb + 1) (n - cb - 1) in
          match float_of_string_opt (String.trim rest) with
          | None -> fail "unparseable sample value"
          | Some f -> Ok (name, le, f)))

let le_value = function
  | "+Inf" -> infinity
  | s -> ( match float_of_string_opt s with Some f -> f | None -> nan)

let validate text =
  (* Per histogram family: buckets in exposition order, _count value. *)
  let buckets : (string, (float * float) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let counts : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let err = ref None in
  let set_err e = if !err = None then err := Some e in
  let strip_suffix s suf =
    if String.length s > String.length suf
       && String.sub s (String.length s - String.length suf) (String.length suf)
          = suf
    then Some (String.sub s 0 (String.length s - String.length suf))
    else None
  in
  List.iter
    (fun line ->
      if !err = None && line <> "" && line.[0] <> '#' then
        match parse_sample line with
        | Error e -> set_err e
        | Ok (name, le, v) -> (
            if not (valid_metric_name name) then
              set_err (Printf.sprintf "invalid metric name %S" name)
            else
              match (strip_suffix name "_bucket", le) with
              | Some base, Some le_s ->
                  let l =
                    match Hashtbl.find_opt buckets base with
                    | Some l -> l
                    | None ->
                        let l = ref [] in
                        Hashtbl.replace buckets base l;
                        l
                  in
                  l := (le_value le_s, v) :: !l
              | Some _, None ->
                  set_err
                    (Printf.sprintf "bucket line without le label: %s" line)
              | None, _ -> (
                  match strip_suffix name "_count" with
                  | Some base -> Hashtbl.replace counts base v
                  | None -> ())))
    (String.split_on_char '\n' text);
  (match !err with
  | Some _ -> ()
  | None ->
      Hashtbl.iter
        (fun base l ->
          if !err = None then begin
            let bs = List.rev !l in
            (* cumulative counts must be nondecreasing in exposition order,
               and the le bounds strictly increasing *)
            let rec mono = function
              | (le1, v1) :: ((le2, v2) :: _ as rest) ->
                  if not (le1 < le2) then
                    set_err
                      (Printf.sprintf "%s: le bounds not increasing" base)
                  else if v1 > v2 then
                    set_err
                      (Printf.sprintf "%s: bucket counts not cumulative" base)
                  else mono rest
              | _ -> ()
            in
            mono bs;
            (match List.rev bs with
            | (le_last, v_last) :: _ ->
                if le_last <> infinity then
                  set_err (Printf.sprintf "%s: missing +Inf bucket" base)
                else (
                  match Hashtbl.find_opt counts base with
                  | Some c when c <> v_last ->
                      set_err
                        (Printf.sprintf "%s: +Inf bucket %g <> count %g" base
                           v_last c)
                  | Some _ -> ()
                  | None -> set_err (Printf.sprintf "%s: missing _count" base))
            | [] -> ())
          end)
        buckets);
  match !err with Some e -> Error e | None -> Ok ()
