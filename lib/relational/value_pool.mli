(** Global value-intern table: the heart of the columnar data plane.

    Each distinct {!Value.t} gets a process-global int id; columnar
    relations store ids and operator kernels compare ints.  Two notions of
    identity are tracked:

    - {b structural} identity (bit-exact; floats keyed by IEEE bits)
      assigns ids, so [resolve (intern v)] is structurally [v] and renders
      byte-identically — the columnar pipeline prints exactly what the
      boxed pipeline prints.
    - {b class} identity quotients ids by {!Value.equal}: [Int 1] and
      [Float 1.0] share a class, NaNs share a class, signed zeros share a
      class.  Anywhere the boxed path used [Value.equal]/[Value.hash]
      (join keys, set dedup, subsumption), kernels compare [class_of]
      images instead.

    Laws (tested in [test_columnar.ml]):
    - [intern (resolve id) = id] and [resolve (intern v)] structural-equal
      to [v];
    - [class_of (intern a) = class_of (intern b)] iff [Value.equal a b];
    - [class_of null_id = null_id], and an id is null iff it equals
      {!null_id}.

    The pool is domain-safe: writes are mutex-protected, reads are
    lock-free (chunked storage; chunks never move). Ids are never
    recycled; the pool grows monotonically for the process lifetime. *)

(** The id of [Value.Null]: always [0], so a column cell is null iff 0. *)
val null_id : int

val is_null : int -> bool

(** Intern one value (idempotent). *)
val intern : Value.t -> int

(** Intern a whole tuple under one lock acquisition. *)
val intern_tuple : Tuple.t -> int array

(** Intern a tuple array into per-attribute columns (one lock
    acquisition): [intern_rows rows ~arity] returns [arity] columns of
    [Array.length rows] ids each. *)
val intern_rows : Tuple.t array -> arity:int -> int array array

(** The class of a value already in the pool, without interning it:
    [Some (class_of (intern v))] when some interned value is
    {!Value.equal} to [v], else [None] (no column cell can equal [v]). *)
val find_class : Value.t -> int option

(** The value interned at this id (structural round-trip). *)
val resolve : int -> Value.t

(** Representative id of the {!Value.equal}-class of this id. *)
val class_of : int -> int

(** Number of distinct interned values (including [Null]). *)
val size : unit -> int

(** Alias of {!size}, matching the server gauge name
    [server.value_pool.count]. *)
val count : unit -> int

(** Approximate retained bytes: a fixed per-id charge (chunk slots plus
    hashtable entries) plus string payload lengths.  Monotone — the pool
    never evicts.  The server reads {!count} and this at every [stats] or
    scrape as its [server.value_pool.count] / [.bytes] gauges, the leak
    detector of a long-lived server (docs/data-plane.md). *)
val footprint_bytes : unit -> int

(** {!Value.compare} lifted to ids; [0] exactly for class-equal ids. *)
val compare_resolved : int -> int -> int

(** The flat sort key of an interned id: constructor-rank tag (as a char,
    {!Value.rank} order) and float image of numerics/bools (0. for nulls
    and strings).  Keys order ids exactly as {!compare_resolved} up to
    ties — key-equal ids still need the exact compare. *)
val sort_key : int -> char * float

(** [true] while every interned id is its own class representative — no
    cross-constructor equal pair ([Int 1] / [Float 1.0], say) has been
    interned yet.  While trivial, class columns are identity and kernels
    may use structural columns directly.  Monotone: once [false], stays
    [false]. *)
val classes_trivial : unit -> bool
