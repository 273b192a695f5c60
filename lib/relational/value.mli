(** Atomic attribute values, including SQL-style [Null].

    Values are the leaves of the relational model used throughout the
    reproduction.  Comparison follows SQL intuition where it matters for the
    paper's definitions: [Null] never equals anything under
    {!sql_eq} (so join predicates are {e strong} in the sense of Section 3 of
    the paper), while {!compare} provides an arbitrary but consistent total
    order used for sorting and indexing. *)

type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

(** Equality as the kernel of {!compare}: [equal a b] iff [compare a b = 0].
    [Null] equals [Null], [Int]s and [Float]s coincide when numerically
    equal, and NaN equals NaN.  Used for set semantics of relations and for
    subsumption, where two null fields agree. *)
val equal : t -> t -> bool

(** Total order over values (constructor rank first, payload second;
    [Int]s and [Float]s are compared numerically across constructors). *)
val compare : t -> t -> int

(** The constructor rank {!compare} orders by first: 0 [Null], 1 [Bool],
    2 numeric ([Int] and [Float] share a rank), 3 [String]. *)
val rank : t -> int

(** SQL-flavoured equality used by predicates: [None] when either side is
    [Null] (unknown), [Some b] otherwise. *)
val sql_eq : t -> t -> bool option

(** SQL-flavoured ordering used by predicates: [None] when either side is
    [Null], otherwise [Some c] with [c] as {!compare} restricted to
    like-kinded values (numeric across [Int]/[Float]). *)
val sql_compare : t -> t -> int option

val is_null : t -> bool

(** Best-effort numeric view; [None] for non-numeric or [Null]. *)
val to_float : t -> float option

(** Arithmetic lifted over values; [Null] propagates, non-numeric operands
    yield [Null]. Integer arithmetic is preserved when both sides are [Int]. *)
val add : t -> t -> t

val sub : t -> t -> t
val mul : t -> t -> t

(** String concatenation; [Null] if either operand is [Null]; non-string
    operands are rendered with {!to_string} first. *)
val concat : t -> t -> t

(** Rendering used by table printers and SQL generation ([Null] prints as
    ["null"], strings unquoted). *)
val to_string : t -> string

(** SQL literal rendering (strings single-quoted, [Null] as [NULL]).
    Non-finite floats (nan, infinities) have no SQL literal and render as
    [NULL]. *)
val to_sql : t -> string

(** Parse a CSV cell: empty or ["null"] is [Null]; otherwise tries [Int],
    [Float], [Bool], falling back to [String]. *)
val of_csv_cell : string -> t

val pp : Format.formatter -> t -> unit

(** Consistent with {!equal}: [equal a b] implies [hash a = hash b] (numeric
    values hash through their float image, NaNs and signed zeros collapse). *)
val hash : t -> int

(** Hashtables keyed by values under {!equal}/{!hash} — every value-keyed
    index must use these (or {!compare}-based sorting), never the polymorphic
    [Hashtbl], which would disagree with {!equal} on mixed numerics and
    NaN. *)
module Table : Hashtbl.S with type key = t
