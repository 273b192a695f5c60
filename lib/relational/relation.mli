(** Named finite sets of tuples over a scheme.

    Relations use set semantics: {!create} and all operators deduplicate
    (under [Value.equal], which identifies [Int 1] with [Float 1.0]).
    Order is unspecified except where an operation documents sorting.

    A relation holds up to two memoized representations of the same row
    sequence — the boxed [Tuple.t array] view and the columnar
    {!Value_pool}-id view — each materialized lazily from the other.
    Schema-only copies ({!with_name}, {!rename_rel}) share the rows and
    both memos with their source.
    Tuple-level accessors ({!tuples}, {!iter}, {!fold}, {!pp}, …) force
    the boxed view; the batch operator kernels ({!Algebra},
    [Fulldisj.Min_union]) work on {!columns}; {!view} and {!cell} read
    whichever is there ({!Render} does).  See docs/data-plane.md. *)

type t

(** Hash table keyed by whole tuples ({!Tuple.equal} / {!Tuple.hash});
    the building block for one-pass set operations over relations. *)
module Tuple_tbl : Hashtbl.S with type key = Tuple.t

(** The one tuple-level builder.  Checks every tuple's arity against the
    schema (always), rejects all-null tuples unless [~allow_all_null:true]
    (intermediate results such as padded associations may legitimately
    contain them), and removes duplicates unless [~dedup:false] (pass it
    only when the input is already a set — operator hot paths — or when
    the caller accepts first-occurrence semantics being skipped).
    Replaces the former [make] / [make_of_array] / [of_array_unsafe]
    trio: ownership of the list is irrelevant (it is reified), and the
    two optional flags are the whole validation contract. *)
val create :
  ?dedup:bool -> ?allow_all_null:bool -> string -> Schema.t -> Tuple.t list -> t

(** Columnar builder: one int array of {!Value_pool} structural ids per
    attribute, all of equal length.  Takes ownership of the arrays — do
    not mutate them afterwards.  Same validation contract as {!create}
    ([dedup] compares rows class-wise, first occurrence wins).  [nrows]
    is the row count, by default the columns' length; a schema of no
    columns needs it (its rows are empty tuples, which no column
    counts), elsewhere every column must have that length.
    [of_columns ~nrows:(cardinality r) name schema (columns r)] rebuilds
    [r] for every arity. *)
val of_columns :
  ?dedup:bool ->
  ?allow_all_null:bool ->
  ?nrows:int ->
  string ->
  Schema.t ->
  int array array ->
  t

val name : t -> string
val schema : t -> Schema.t
val tuples : t -> Tuple.t list

(** The boxed tuple array, memoized, no copy — read-only by contract. *)
val tuples_array : t -> Tuple.t array

(** The columnar view, memoized, no copy — read-only by contract.  One
    int array per attribute; cells are {!Value_pool} structural ids
    (0 = null).  Interning a relation that has no columns yet adds its
    row count to the [relation.rows_interned] counter. *)
val columns : t -> int array array

(** The same relation held as id columns only: [t] itself when it has
    no boxed view, else a relation sharing [t]'s columns (interned now if
    [t] had none) without the boxed array.  Tuples are built again, and
    memoized, only when a caller asks for them.  What a {!Database}
    stores. *)
val as_columns : t -> t

(** The same relation held as boxed tuples only, the mirror of
    {!as_columns}: [t] itself when it has no columns, else a relation
    sharing [t]'s tuple array (boxed now if [t] had none) without the
    columns.  What a computed D(G) keeps. *)
val as_boxed : t -> t

(** How the relation holds its rows right now: the boxed array when it
    has one, else the id columns.  Materializes nothing; for readers
    such as {!Render} that consume either without boxing a columnar
    relation. *)
type view = Boxed of Tuple.t array | Columns of int array array

val view : t -> view

(** [cell t i c] is the value at row [i], column [c], read from
    whichever representation {!view} returns; materializes nothing. *)
val cell : t -> int -> int -> Value.t

val cardinality : t -> int
val is_empty : t -> bool
val mem : t -> Tuple.t -> bool
val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
val filter : (Tuple.t -> bool) -> t -> t

(** A copy under another name; shares [t]'s rows and memos. *)
val with_name : string -> t -> t

(** Rename the owning node of every attribute; used to create relation
    copies such as [Parents2].  Shares [t]'s rows and memos. *)
val rename_rel : t -> from:string -> into:string -> t

(** Values appearing in a column, nulls excluded, deduplicated. *)
val column_values : t -> Attr.t -> Value.t list

(** Set equality (same schema, same tuple set). *)
val equal_contents : t -> t -> bool

(** Approximate resident bytes of the columnar representation (8 bytes a
    cell; the shared {!Value_pool} is not attributed).  Deterministic and
    O(1); the engine cache's byte budget is accounted in these units. *)
val footprint_bytes : t -> int

val pp : Format.formatter -> t -> unit
