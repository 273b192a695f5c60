(** Prometheus text exposition (format 0.0.4) of a {!Metrics.snapshot}.

    {!render} emits every counter of the snapshot as [clio_<name>_total],
    every histogram as a [clio_<name>_ms] histogram family — cumulative
    [_bucket{le=...}] lines from the exact bucket counts
    ([Histogram.stats.buckets]), plus [_sum] and [_count] — and any
    caller-supplied labeled gauges, all in registration order so two
    scrapes of one process differ only in values.

    Names are mapped onto the Prometheus charset by {!sanitize_name};
    label values are escaped per the exposition rules
    ({!escape_label_value}). *)

type gauge = {
  gauge_name : string;  (** Obs-style name; sanitized on render *)
  labels : (string * string) list;
  value : float;
}

(** [gauge ?labels name value] (no labels by default). *)
val gauge : ?labels:(string * string) list -> string -> float -> gauge

(** ["clio_"], prepended to every exported metric name. *)
val prefix : string

(** Map an Obs registry name onto [clio_[a-zA-Z0-9_:]+]: invalid characters
    become ['_'] and the {!prefix} is prepended (guarding a leading
    digit). *)
val sanitize_name : string -> string

(** Escape a label value: backslash, double quote and newline. *)
val escape_label_value : string -> string

(** The full exposition document, newline-terminated.  Gauges sharing a
    name form one family (one [# TYPE] line), in first-appearance order. *)
val render : ?gauges:gauge list -> Metrics.snapshot -> string

(** Check an exposition document: metric names restricted to the legal
    charset, every sample line carries a parseable value, and each
    histogram family has strictly increasing [le] bounds, nondecreasing
    cumulative bucket counts, a [+Inf] bucket, and [+Inf] bucket equal to
    its [_count].  Returns the first violation found. *)
val validate : string -> (unit, string) result
