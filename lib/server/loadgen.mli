(** The B16 load generator: N scripted clients driving mixed
    refinement/evaluation traffic against one server, with an optional
    verification arm.

    Each client runs the same deterministic script over its own session —
    open, then [ops] operations in rounds of eight: branch [round-<k>] off
    [main] → offer → evaluate D(G) → rotate → evaluate target → confirm →
    checkout [main] → insert (a tuple unique to that client and step),
    then close — so any two runs over equal specs do identical work, and
    every round's offer starts from the root mapping, which keeps the
    script valid for any [ops].  Clients are interleaved round-robin
    (in-process) or pipelined one-in-flight-each (socket), which is what
    makes the shared-cache and isolation claims observable: sessions share
    D(G)/F(J) entries until their first insert forks them onto private
    database versions.

    Verification replays every client's script {e sequentially} through
    plain {!Clio.Workspace} values (one per branch) over
    {!Version.Scenario.resolve_fresh} state with a fresh cache-less context — a
    genuinely independent path — and compares the MD5 digests
    ({!Relational.Render.digest}) of every evaluation result
    byte-for-byte. *)

type spec = {
  scenario : Protocol.scenario;
  clients : int;
  ops : int;  (** operations per client, between open and close *)
  limit : int option;  (** rows included in evaluate replies *)
  keep_open : bool;
      (** skip the final [close]: sessions stay open after the run — what
          the restart-smoke harness uses so a [--store-dir] shutdown
          persists them for the next boot to resume *)
}

type outcome = {
  sent : int;  (** requests sent (retries of overloaded ones not counted) *)
  ok : int;
  errors : int;  (** error replies other than [overloaded] *)
  overloads : int;  (** [overloaded] replies observed (each retried) *)
  echo_failures : int;
      (** replies whose [trace_id] did not echo the request's — every
          loadgen request sends one ([lg<client>-<id>]), so this must be
          0 against a correct server *)
  elapsed_s : float;
  throughput : float;  (** successful replies per second *)
  p50_us : float;
  p99_us : float;
  max_us : float;
  latencies_us : (string * float) array;
      (** every request as (op, latency in us), sorted by latency — the
          samples behind the percentiles above, exposed so callers can
          pool distributions across runs and slice them per operation (a
          single run's p50 mixes op modes and is too noisy to gate on) *)
  digests : string list array;  (** per client, evaluation results in order *)
  mismatches : int option;  (** digest mismatches vs the sequential replay
                                ([None] when verification was off) *)
}

(** The request script of one client (open/close not included). *)
val client_requests : spec -> client:int -> Protocol.request list

(** Digests the sequential replay produces, per client. *)
val replay_digests : spec -> string list array

(** Drive a {!Service} directly, no transport (cold = fresh registry).
    [verify] (default [true]) runs the replay arm. *)
val run_inprocess : ?verify:bool -> Service.t -> spec -> outcome

(** Drive a running server over its socket: one connection per client,
    requests pipelined round-robin, bounded retry on [overloaded]. *)
val run_socket : ?verify:bool -> address:Loop.address -> spec -> outcome

(** One-shot client call: connect, send the envelopes in order, await one
    reply per envelope, close.  Used by the [clio_serve scrape]/[top]
    utilities.  @raise Failure on an unparseable reply or closed
    connection. *)
val rpc_once :
  address:Loop.address -> Protocol.envelope list -> Protocol.response list

val pp_outcome : Format.formatter -> outcome -> unit
