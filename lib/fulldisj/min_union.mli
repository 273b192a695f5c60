(** Subsumption and the minimum union operator ⊕ (Definitions 3.8–3.9).

    One kernel removes strictly subsumed rows, {!sweep}, on the columnar
    bitmask/class-id representation; {!merge_keep_flags} repairs a
    minimal set after a batch of inserts.  The pairwise
    {!remove_subsumed_naive} and {!is_minimal} are the test oracles.
    Every input must be deduplicated to set semantics (every caller here
    goes through {!Relational.Relation.create}, which dedups). *)

open Relational

(** [remove_subsumed_naive tuples] — keep tuples not strictly subsumed by
    any other, via pairwise scan.  O(n² · arity).  The test oracle for
    {!sweep} and the naive D(G) algorithm's subsumption pass. *)
val remove_subsumed_naive : Tuple.t list -> Tuple.t list

(** [merge_keep_flags ?pool ~base delta] — keep flags for merging a
    batch [delta] into a mutually minimal [base]: a base tuple survives
    unless some delta tuple strictly subsumes it; a delta tuple survives
    unless a base tuple subsumes or equals it, another delta tuple
    strictly subsumes it, or an earlier delta tuple equals it.  So the
    batch may repeat itself and the base.  One chunked pass over [base]
    probes only tables built from [delta], and base-vs-base checks are
    never re-run: the cost is one pass over the base plus work in the
    size of the batch.  [?pool] chunks the pass as in {!sweep}; the
    flags are identical either way.  Raises [Invalid_argument] when a
    delta tuple's arity differs from the base's. *)
val merge_keep_flags :
  ?pool:Par.Pool.t ->
  base:Tuple.t array ->
  Tuple.t array ->
  bool array * bool array

(** [sweep ?pool rel] — [rel] minus its strictly subsumed rows, row order
    preserved, on the columnar bitmask/class-id kernel: each row probes
    the per-column class buckets at its most selective non-null column.
    Any arity: up to {!Relational.Col_ops.mask_arity_limit} columns the
    row bitmasks are exact null patterns, beyond they fold and only
    prefilter.  [?pool] chunks the per-row checks across a [Par] pool;
    the result is identical either way. *)
val sweep : ?pool:Par.Pool.t -> Relation.t -> Relation.t

(** {!sweep} wrapped in the [min_union] telemetry span, with
    considered/kept counters — the building block of every D(G)
    algorithm's final subsumption pass. *)
val minimize : ?pool:Par.Pool.t -> Relation.t -> Relation.t

(** Minimum union of two relations: outer union with strictly subsumed
    tuples removed. *)
val min_union : Relation.t -> Relation.t -> Relation.t

(** [is_minimal tuples] — no tuple strictly subsumes another (test oracle). *)
val is_minimal : Tuple.t list -> bool
