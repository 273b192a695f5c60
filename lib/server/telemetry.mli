(** The server's telemetry sinks: the structured event log and the
    slow-request exemplar ring.

    Owned by {!Service} (which emits [request.complete] with per-request
    latency and cache attribution) and shared with {!Loop} (connection
    accept/close, admission events, drain/shutdown).  Everything is
    optional and off by default: {!none} swallows every event. *)

type t

(** Swallows everything; the default. *)
val none : t

(** Exemplar files retained by default (256). *)
val default_exemplar_keep : int

(** [create ?log ?slow_ms ?exemplar_dir ?exemplar_keep ()] — [log] is the
    JSONL sink; requests whose duration reaches [slow_ms] (when set) get
    their captured span subtree written to
    [exemplar_dir/trace-<sanitized id>.json] in Chrome trace_event format,
    with the oldest files beyond [exemplar_keep] unlinked. *)
val create :
  ?log:Obs.Event_log.t ->
  ?slow_ms:float ->
  ?exemplar_dir:string ->
  ?exemplar_keep:int ->
  unit ->
  t

(** Emit one event line (no-op without a log sink). *)
val log : t -> Obs.Event_log.level -> string -> (string * Obs.Json.t) list -> unit

(** Called by {!Service.handle} after every executed request: writes the
    exemplar when the request qualifies, then logs [request.complete]
    (trace id, op, request id, session, ok, latency, the request's
    [cache.*] counter deltas [cache_deltas], exemplar path).
    [client_traced] records whether the trace id came from the wire. *)
val request_complete :
  t ->
  record:Obs.Scope.record ->
  cache_deltas:(string * int) list ->
  op:string ->
  id:int ->
  session:string option ->
  ok:bool ->
  client_traced:bool ->
  unit

(** The filename a given trace id would be captured under (regardless of
    whether it has been). *)
val exemplar_path : t -> string -> string option

val flush : t -> unit
val close : t -> unit
