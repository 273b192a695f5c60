(** The transport: a pure-I/O [Unix.select] event loop speaking the
    newline-delimited protocol over a Unix-domain or loopback TCP socket,
    with execution on a sharded worker plane ({!Par.Workers}).

    The loop thread only accepts, reads, frames, admits and writes — it
    never calls {!Service.handle}.  Admitted requests are dispatched to
    one of [workers] worker domains; a session's requests always land on
    the shard pinned by its store's {!Registry.affinity}, so requests
    within a session (and across sessions sharing a store) execute
    serially in admission order while distinct stores run in parallel.
    Sessionless verbs spread round-robin.  Completions cross back on a
    mutexed queue plus a self-pipe byte, which is also what wakes the
    otherwise indefinitely-blocked select — the loop never polls on a
    timeout.

    Admission control happens before execution: a frame that is not valid
    JSON gets an immediate [parse_error] reply; a valid request that
    arrives while the connection already has [queue_capacity] requests
    inboxed or in flight gets an immediate [overloaded] reply (the
    connection stays open — backpressure, not disconnection).  Admission
    from connection inboxes into the worker plane is round-robin across
    connections under a global [queue_capacity] in-flight budget, so a
    flooding connection overloads itself, not its neighbours.  Every
    reply — executed or admission-time error — is sequenced per
    connection: wire order always equals submission order.

    Shutdown: SIGTERM/SIGINT (or a [shutdown] request) flips the loop into
    draining — it stops reading, dispatches everything already parsed,
    waits for in-flight workers, flushes every connection's output buffer
    (bounded by a 5 s deadline), joins the workers, closes, removes the
    socket file, and returns a {!stop_reason}.  The caller exits 0 after a
    [shutdown] drain, or with the conventional signal code (130/143) after
    SIGINT/SIGTERM — telemetry sinks are flushed either way.

    Transport telemetry (through the service's {!Telemetry.t}):
    [conn.accept]/[conn.close]/[request.admit] at debug,
    [conn.reject]/[request.overload]/[request.parse_error] at warn,
    [server.drain]/[server.shutdown] at info.  The worker plane surfaces
    as the [server.workers]/[.busy]/[.dispatched]/[.wait_ms] gauges of
    [stats] and the Prometheus scrape, beside [server.queue.*] and
    [server.connections]. *)

type address =
  | Unix_path of string
  | Tcp of int  (** loopback only: binds 127.0.0.1 *)

(** Why the loop returned: a drained [shutdown] request, or a signal with
    its conventional exit code (SIGINT 130, SIGTERM 143). *)
type stop_reason = Drained | Interrupted of int

type config = {
  address : address;
  queue_capacity : int;
      (** per-connection pending bound and global in-flight budget; beyond
          it, [overloaded] *)
  max_frame : int;  (** bytes per frame; beyond it the connection is closed *)
  max_connections : int;
  workers : int;  (** worker domains; 1 = serial execution (the default) *)
}

val default_config : address -> config

(** Blocks until shutdown.  [on_ready] (if given) runs once the socket is
    listening — the bench harness uses it to start its clients. *)
val run : ?on_ready:(unit -> unit) -> config -> Service.t -> stop_reason
