(** Named summary histograms with the same process-global registry
    discipline as {!Counter}.  Span durations are recorded here
    automatically under ["span.<span name>"], giving a cheap per-operation
    latency rollup even when no trace file is written.

    Raw observations are retained up to {!reservoir_cap} per histogram
    (only while observability is enabled): below the cap {!stats} reports
    exact nearest-rank percentiles alongside count/mean/min/max; beyond it
    the retained samples form a uniform reservoir (Vitter's algorithm R,
    deterministic per-name stream) and percentiles become reservoir
    estimates — count/sum/mean/min/max and the fixed exposition buckets
    stay exact at any volume.  This bounds a long-lived daemon's memory:
    previously every observation was retained forever. *)

type t

type stats = {
  n : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;  (** median, nearest-rank *)
  p90 : float;
  p99 : float;
  buckets : int array;
      (** exact per-bucket (non-cumulative) counts aligned with
          {!bucket_bounds}; the extra final slot is the +Inf overflow *)
}

(** Maximum raw observations retained per histogram for percentile
    estimation (4096).  Percentiles are exact while [n <= reservoir_cap]. *)
val reservoir_cap : int

(** Fixed bucket upper bounds (inclusive [le] semantics, milliseconds) used
    for the Prometheus text exposition; an implicit +Inf overflow bucket
    follows the last bound.  Bucket counts are exact regardless of the
    reservoir. *)
val bucket_bounds : float array

(** [make name] returns the registered histogram called [name], creating it
    empty on first use. *)
val make : string -> t

val name : t -> string

(** Record one observation iff observability is enabled. *)
val observe : t -> float -> unit

(** Summary including nearest-rank percentiles over the retained samples
    (exact while [n <= reservoir_cap]; 0 everywhere when empty). *)
val stats : t -> stats

(** Nearest-rank percentile over the retained samples, [q] in percent
    (e.g. [percentile h 99.]).  Exact while [n <= reservoir_cap]. *)
val percentile : t -> float -> float

(** [nearest_rank sorted q] — the smallest of the ascending [sorted]
    samples with at least [q] percent of them at or below it (0 when
    empty).  The one percentile convention of every Obs and server
    report. *)
val nearest_rank : float array -> float -> float

(** Number of raw samples currently retained: [min n reservoir_cap]. *)
val sample_count : t -> int

val find : string -> t option

(** All registered histograms in registration order. *)
val all : unit -> t list

val reset_all : unit -> unit

(** Worker domains buffer observations domain-locally.  [flush_worker]
    parks this domain's buffered observations for adoption (pool calls it
    per completed task); [adopt_pending] replays everything parked into the
    real histograms — callable from any domain after a batch has joined
    (recording is internally locked). *)
val flush_worker : unit -> unit

val adopt_pending : unit -> unit
