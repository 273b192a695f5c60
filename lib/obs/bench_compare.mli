(** Diff two bench JSON documents (as written by [bench/main.exe]) and
    decide whether any gated row regressed.

    Rows, per benchmark/workload present in both files: wall time per run
    ([time]), exact operator counters ([ctr:<name>]) and minor-heap
    allocation ([alloc]).  One fixed rule per kind, no tolerance knobs:

    - a [ctr:] row fails when current/baseline exceeds 1.02 (counters
      are exact operation counts);
    - an [alloc] row fails when it exceeds 1.25; these rows are compared
      only when both documents' [environment.ocaml_version] agree (the
      runtime decides some of the words; the report says when they are
      skipped);
    - a [time] row prints its ratio and never fails.

    Names present in only one file are listed but never flagged.  This
    module is pure (JSON in, outcome out); [bench/compare.exe] is a thin
    CLI over it, which keeps the regression decision unit-testable. *)

type regression = {
  name : string;
  metric : string;  (** ["ctr:<counter>"] or ["alloc"] *)
  baseline : float;
  current : float;
  ratio : float;
  allowed : float;
}

type outcome = {
  report : string;  (** the printable diff tables plus an OK/FAIL line *)
  regressions : regression list;
  only_baseline : string list;
  only_current : string list;
}

(** [Error _] means one of the inputs is not a bench document. *)
val diff : baseline:Json.t -> current:Json.t -> (outcome, string) result

(** The exit-code contract of [bench/compare.exe]: 0 when clean, 1 when a
    regression was flagged.  (Unusable input is exit 2, decided by the
    executable.) *)
val exit_code : outcome -> int

(** [ordering_failures ~current pairs] — one message per [(a, b, ratio)]
    whose benchmark [a] is not at least [ratio] times faster than [b] in
    [current] ([time_a * ratio < time_b]), or is missing: the
    [--require-faster] gate, which compares arms of one run and so does
    not depend on the machine's speed. *)
val ordering_failures :
  current:Json.t -> (string * string * float) list -> string list
