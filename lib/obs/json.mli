(** Minimal JSON: one value type, a compact and a pretty emitter, a
    strict parser and one set of field readers.  The single
    authoritative JSON implementation — {!Trace_export}, {!Metrics},
    {!Bench_compare}, the server's wire protocol, the version store's
    snapshot and changelog, the bench harness and the tests all share
    it, so escaping rules and field types cannot drift between producers
    and consumers.

    The parser accepts exactly what the emitters produce plus standard
    JSON (including [\uXXXX] escapes and surrogate pairs, decoded to
    UTF-8).  Numbers are floats; NaN and infinities are emitted as
    [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Backslash-escape a string for embedding between double quotes. *)
val escape : string -> string

(** [escape] wrapped in double quotes. *)
val quote : string -> string

val to_string : t -> string

(** Two-space-indented rendering, for committed/diffed files. *)
val to_string_pretty : t -> string

exception Bad of string

(** Container nesting the parser accepts before rejecting the input —
    hostile wire frames (e.g. 100k ['[']s) get an error, not a stack
    overflow. *)
val max_depth : int

(** @raise Bad on malformed input (including nesting beyond
    {!max_depth}); never raises anything else and never loops, whatever
    the input bytes. *)
val parse_exn : string -> t

val parse : string -> (t, string) result

(** Field of an object ([None] on missing field or non-object). *)
val member : string -> t -> t option

val to_float : t -> float option
val to_str : t -> string option

(** Fields of an object, [[]] for non-objects. *)
val obj_fields : t -> (string * t) list

(** Items of an array, [[]] for non-arrays. *)
val arr_items : t -> t list

(** [Some i] for an integral number with [|i| <= 1e15] (exactly
    representable), [None] otherwise. *)
val to_int : t -> int option

(** {2 Field readers}

    The one way an object's fields are decoded — wire frames, changelog
    lines, snapshots and manifests all read through these.  Each raises
    {!Bad} with ["missing field \"f\""] or ["field \"f\" must be a
    string"] (an integer, a boolean, an array). *)

(** Any value, present. *)
val field : string -> t -> t

val str : string -> t -> string
val bool : string -> t -> bool

(** An integral number ({!to_int}); [default] when the field is absent. *)
val int : ?default:int -> string -> t -> int

val arr : string -> t -> t list

(** [opt read name j] — [None] when the field is absent or [null], else
    [Some (read name j)]: [opt int] is the optional integer. *)
val opt : (string -> t -> 'a) -> string -> t -> 'a option

(** [decode f j] — [f j], with a {!Bad} raised by a reader returned as
    [Error]. *)
val decode : (t -> 'a) -> t -> ('a, string) result
