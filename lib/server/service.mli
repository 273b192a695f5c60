(** The request executor: one {!Protocol.envelope} in, one
    {!Protocol.response} out, against the shared {!Registry}.

    This layer is transport-free — the event loop ({!Loop}) and the
    in-process load generator ({!Loadgen}) both drive it — and owns the
    error discipline: session-verb exceptions ([Invalid_argument],
    [Not_found]) become [Bad_request] replies, anything unexpected becomes
    [Internal], and nothing escapes to the caller.  Per-session [session.*]
    metrics (verb counts, latency percentiles) are recorded here, around
    each executed request. *)

type t

val create : Registry.t -> t
val registry : t -> Registry.t

(** Set once by the event loop: extra unlabeled [server.*] gauges (queue
    depth, connection count, worker plane) appended to the registry's
    {!Registry.gauges} in no-session [stats] replies and [metrics_prom]
    scrapes. *)
val set_extra_stats : t -> (unit -> Obs.Prom_export.gauge list) -> unit

(** Telemetry sinks ({!Telemetry.none} until set).  Every executed request
    runs under an {!Obs.Scope} — the client's [trace_id] when sent, a
    server-assigned id otherwise — whose record feeds the
    [request.complete] log line, the per-session cache attribution, and
    the slow-request exemplar ring. *)
val set_telemetry : t -> Telemetry.t -> unit

val telemetry : t -> Telemetry.t

(** [true] after a [shutdown] request was accepted: the owner should stop
    admitting work, finish what is queued, and exit. *)
val draining : t -> bool

(** The short operation name a request is attributed under in stats,
    logs and the load generator's latency dump: its wire name,
    {!Protocol.verb_name}. *)
val verb_name : Protocol.request -> string

val handle : t -> Protocol.envelope -> Protocol.response

(** Parse one frame, execute it, encode the reply (no trailing newline).
    Malformed frames yield an encoded error reply, never an exception. *)
val handle_frame : t -> string -> string
