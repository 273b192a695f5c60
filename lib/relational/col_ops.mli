(** Shared batch kernels over interned int columns.

    A column set is [int array array]: one int array per attribute, all
    of equal length (the row count), cells holding {!Value_pool}
    structural ids (0 = null).  Comparisons (dedup, sorting, masks) go
    through {!Value_pool.class_of} so they agree with [Value.equal]. *)

(** Growable int buffer for building output columns row by row. *)
module Ibuf : sig
  type t

  val create : int -> t
  val push : t -> int -> unit
  val contents : t -> int array
end

(** Map a structural-id column to its class-id image. *)
val class_column : int array -> int array

val class_columns : int array array -> int array array

(** Row count of a column set ([0] for arity 0). *)
val nrows : int array array -> int

(** Hash of row [i] over class columns. *)
val row_hash : int array array -> int -> int

(** Class-wise row equality. *)
val rows_equal : int array array -> int -> int -> bool

(** Set-semantic dedup, first occurrence wins: kept row indices in order,
    or [None] when the input was already duplicate-free. *)
val dedup_keep_first : int array array -> int array option

(** Select rows by index, in order. *)
val gather : int array array -> int array -> int array array

(** Vertical concatenation of column sets sharing one arity. *)
val concat : int array array list -> int array array

(** Rows reordered into [Value.compare] order (the columnar image of
    sorting boxed tuples with [Tuple.compare]); deterministic on
    deduplicated inputs.  Sorted input is returned as is and up to 64
    sorted runs are merged; otherwise, when every column-0 cell is null,
    a bool or an integral numeric in ±2^62, the rows are radix-sorted by
    a monotone integer key of column 0 and ties settled by the exact
    comparator, and any other input takes a comparator sort. *)
val sort_rows_canonical : int array array -> int array array

(** Row indices grouped by cell value — the columnar counterpart of a
    per-column [Value.Table] index.  Built by counting sort over flat int
    arrays when the value space is dense relative to the row count (no
    hashing, no per-row allocation), falling back to a hashtable for
    sparse ids.  Value 0 (null) is never indexed. *)
module Buckets : sig
  type t

  val make : int array -> t

  (** [(start, len)] of [v]'s group within {!rows}; [(0, 0)] if absent. *)
  val span : t -> int -> int * int

  (** Group size of [v] — probe selectivity, O(1). *)
  val count : t -> int -> int

  (** The grouped row indices, ascending within each group. *)
  val rows : t -> int array
end

(** Largest arity whose null pattern [nonnull_masks] holds exactly. *)
val mask_arity_limit : int

(** Per-row bitmask with bit [c mod mask_arity_limit] set iff some such
    column [c] is non-null: up to {!mask_arity_limit} columns, bit [c]
    iff column [c] is non-null; beyond, a folded pattern, so mask
    containment is only a necessary condition for null-pattern
    containment. *)
val nonnull_masks : int array array -> int array
