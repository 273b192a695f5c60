module J = Obs.Json

type t = {
  log : Obs.Event_log.t option;
  slow_ms : float option;
  exemplar_dir : string option;
  exemplar_keep : int;
  (* (trace id, file path), oldest first; bounded by [exemplar_keep].
     Written from whichever worker domain completes a slow request. *)
  ring_mutex : Mutex.t;
  ring : (string * string) Queue.t;
}

let none =
  {
    log = None;
    slow_ms = None;
    exemplar_dir = None;
    exemplar_keep = 0;
    ring_mutex = Mutex.create ();
    ring = Queue.create ();
  }

let default_exemplar_keep = 256

let create ?log ?slow_ms ?exemplar_dir ?(exemplar_keep = default_exemplar_keep)
    () =
  {
    log;
    slow_ms;
    exemplar_dir;
    exemplar_keep;
    ring_mutex = Mutex.create ();
    ring = Queue.create ();
  }

let log t level event fields =
  match t.log with
  | None -> ()
  | Some sink -> Obs.Event_log.log sink level event fields

let flush t = Option.iter Obs.Event_log.flush t.log
let close t = Option.iter Obs.Event_log.close t.log

(* Trace ids come from the wire; squash them into something safe to embed
   in a filename (and bounded, so a hostile id cannot blow NAME_MAX). *)
let sanitize_for_filename id =
  let b = Buffer.create (String.length id) in
  String.iter
    (fun c ->
      if Buffer.length b < 64 then
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> Buffer.add_char b c
        | _ -> Buffer.add_char b '_')
    id;
  if Buffer.length b = 0 then "x" else Buffer.contents b

let exemplar_path t trace_id =
  match t.exemplar_dir with
  | None -> None
  | Some dir ->
      Some (Filename.concat dir ("trace-" ^ sanitize_for_filename trace_id ^ ".json"))

(* Capture the request's span subtree as a Chrome-trace file named by its
   trace id, evicting (and unlinking) the oldest beyond the keep bound.
   Best-effort: an unwritable directory must not fail the request. *)
let write_exemplar t ~trace_id root =
  match exemplar_path t trace_id with
  | None -> None
  | Some path -> (
      try
        let oc = open_out path in
        output_string oc (Obs.Trace_export.to_chrome [ root ]);
        close_out oc;
        let evicted =
          Mutex.protect t.ring_mutex (fun () ->
              Queue.add (trace_id, path) t.ring;
              let old = ref [] in
              while Queue.length t.ring > t.exemplar_keep do
                old := snd (Queue.pop t.ring) :: !old
              done;
              !old)
        in
        List.iter
          (fun old -> try Sys.remove old with Sys_error _ -> ())
          evicted;
        Some path
      with Sys_error _ -> None)

let is_slow t duration_ms =
  match t.slow_ms with Some thr -> duration_ms >= thr | None -> false

let request_complete t ~(record : Obs.Scope.record) ~cache_deltas ~op ~id
    ~session ~ok ~client_traced =
  if t.log <> None || t.exemplar_dir <> None then begin
    let exemplar =
      if is_slow t record.Obs.Scope.duration_ms then
        match record.Obs.Scope.root with
        | Some root ->
            write_exemplar t ~trace_id:record.Obs.Scope.trace_id root
        | None -> None
      else None
    in
    let cache_fields =
      match cache_deltas with
      | [] -> []
      | deltas ->
          [
            ( "cache",
              J.Obj
                (List.map (fun (n, d) -> (n, J.Num (float_of_int d))) deltas)
            );
          ]
    in
    log t Obs.Event_log.Info "request.complete"
      ([
         ("trace_id", J.Str record.Obs.Scope.trace_id);
         ("id", J.Num (float_of_int id));
         ("op", J.Str op);
         ("ok", J.Bool ok);
         ("latency_ms", J.Num record.Obs.Scope.duration_ms);
         ("client_traced", J.Bool client_traced);
       ]
      @ (match session with
        | None -> []
        | Some sid -> [ ("session", J.Str sid) ])
      @ cache_fields
      @
      match exemplar with
      | None -> []
      | Some path -> [ ("exemplar", J.Str path) ])
  end
