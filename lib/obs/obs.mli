(** Observability for the evaluation pipeline: nestable timed spans,
    operator counters/histograms, and trace export.

    Everything hangs off one process-global switch, off by default.
    Instrumented code pays a single predictable branch per record site when
    disabled, so the library can stay threaded through hot paths
    permanently.  Typical use:

    {[
      Obs.enable ();
      let exs = Mapping_eval.examples db m in
      print_string (Obs.report ());                     (* counter tables *)
      Obs.write_trace "trace.json"                      (* chrome://tracing *)
    ]}

    Counter handles and span names live in {!Names} — the single
    authoritative list shared by the pipeline, the CLI, the bench harness
    and the tests. *)

module Counter = Counter
module Histogram = Histogram
module Span = Span
module Trace_export = Trace_export
module Metrics = Metrics
module Bench_compare = Bench_compare
module Json = Json
module Names = Names

(** Request-scoped telemetry: trace ids, per-request counter deltas and
    captured span subtrees ({!Scope}), the server's leveled JSONL event
    log ({!Event_log}), and Prometheus text exposition of the registries
    ({!Prom_export}). *)
module Scope = Scope

module Event_log = Event_log
module Prom_export = Prom_export

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** [with_span ?attrs name f] runs [f] under a span nested in the current
    one; when disabled, runs [f] directly with no recording. *)
val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Attach an attribute to the innermost open span. *)
val set_attr : string -> string -> unit

(** Increment a counter by one (no-op when disabled). *)
val count : Counter.t -> unit

(** Increment a counter by [n] (no-op when disabled). *)
val add : Counter.t -> int -> unit

(** Record a histogram observation (no-op when disabled). *)
val observe : Histogram.t -> float -> unit

(** Hooks for multi-domain execution (used by the [Par] pool; most code
    never calls these).  Recording is domain-safe without hot-path locking:
    worker domains accumulate counters, span trees and histogram
    observations domain-locally; {!Domains.flush_worker} parks them after
    each pool task, and {!Domains.adopt_pending} — called by the pool on
    the main domain once a batch has joined — merges everything into the
    process-wide trace and counter state. *)
module Domains : sig
  val flush_worker : unit -> unit
  val adopt_pending : unit -> unit
end

(** Zero all counters/histograms and drop the recorded trace. *)
val reset : unit -> unit

(** Finished root spans in completion order. *)
val finished_spans : unit -> Span.t list

(** Counter table, histogram table (with percentiles) and the
    allocations-per-span table, as text. *)
val report : unit -> string

(** Write the recorded trace to [file] in Chrome trace_event format. *)
val write_trace : string -> unit

(** Write the full metrics state (counters, histogram summaries, span
    duration/allocation rollups, environment) to [file] as JSON — the
    {!Metrics} schema. *)
val write_metrics : string -> unit
