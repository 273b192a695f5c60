(** Relational algebra over {!Relation.t}, including the data-merging
    operators the paper builds on: outer joins and outer union.

    All operators produce deduplicated results (set semantics) and preserve
    schema layout deterministically (left operand's attributes first). *)

(** [select p r] — σ_p(r). *)
val select : Predicate.t -> Relation.t -> Relation.t

(** [project attrs r] — π_attrs(r), deduplicated. *)
val project : Attr.t list -> Relation.t -> Relation.t

(** Cartesian product; schemas must be attribute-disjoint. *)
val product : Relation.t -> Relation.t -> Relation.t

(** [join p l r] — inner join.  When [p]'s equality atoms span both sides a
    hash join is used; otherwise falls back to filtered product. *)
val join : Predicate.t -> Relation.t -> Relation.t -> Relation.t

(** Nested-loop implementation of the inner join (any predicate). *)
val join_nested_loop : Predicate.t -> Relation.t -> Relation.t -> Relation.t

(** Left outer join: unmatched left tuples padded with nulls on the right. *)
val left_outer_join : Predicate.t -> Relation.t -> Relation.t -> Relation.t

(** Full outer join: unmatched tuples on either side padded with nulls. *)
val full_outer_join : Predicate.t -> Relation.t -> Relation.t -> Relation.t

(** Union of same-schema relations. *)
val union : Relation.t -> Relation.t -> Relation.t

(** Set difference of same-schema relations. *)
val difference : Relation.t -> Relation.t -> Relation.t

(** Outer union: union over the merged schema, each side padded with nulls
    on the attributes it lacks (footnote 1 of the paper).  Shared attributes
    are identified by qualified name. *)
val outer_union : Relation.t -> Relation.t -> Relation.t

(** [pad r schema] — extend each tuple of [r] with nulls so it ranges over
    [schema]; [schema] must contain all of [r]'s attributes. *)
val pad : Relation.t -> Schema.t -> Relation.t
