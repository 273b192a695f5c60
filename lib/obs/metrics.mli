(** The one reading of the process-global metric registries, and the
    renderers every sink is fed from: the text tables ({!render}), the
    versioned metrics JSON ({!to_json}, {!write}), the bench JSON's
    sections ({!counters_json}, {!histograms_json}, {!environment_json})
    and the Prometheus exposition ({!Prom_export.render}).

    Schema version {!schema_version}; see docs/observability.md for the
    field-by-field description. *)

type snapshot = {
  counters : (string * int) list;
      (** Every registered counter, in registration order. *)
  histograms : (string * Histogram.stats) list;
      (** Every registered histogram (span durations are in milliseconds),
          in registration order. *)
  spans : (string * Span.agg) list;
      (** Per-span-name duration/allocation rollup of the finished trace,
          in first-appearance order. *)
}

val snapshot : unit -> snapshot

(** The recorded part of a snapshot — non-zero counters and non-empty
    histograms — which is what the text tables and the JSON show. *)
val nonzero : snapshot -> snapshot

(** Current value of the counter registered under [name] (0 if absent). *)
val value : string -> int

(** Aligned table of the non-zero counters. *)
val render_counters : unit -> string

(** Counters table, histogram table (with percentiles) and the
    allocations-per-span table, each included when non-empty. *)
val render : unit -> string

val schema_version : int

(** The recording environment — hostname, ocaml_version, git_rev,
    timestamp (ISO-8601 UTC), word_size — as a JSON object of strings,
    read per call.  Unknown values degrade to ["unknown"]. *)
val environment_json : unit -> Json.t

(** The ["counters"] / ["histograms"] sections of the JSON, shared with
    the bench JSON's per-workload entries. *)
val counters_json : (string * int) list -> Json.t

val histograms_json : (string * Histogram.stats) list -> Json.t

(** The metrics document of {!nonzero} [snapshot] plus the environment. *)
val to_json : snapshot -> Json.t

(** [write file] — {!to_json} of the current {!snapshot}, pretty-printed
    with a trailing newline. *)
val write : string -> unit

(** Zero all counters and histograms (finished spans are dropped by
    {!Obs.reset}, which also calls {!Span.reset}). *)
val reset : unit -> unit
