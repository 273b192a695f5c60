(** Evaluation of the mapping query Q_M (Definition 3.14) and generation of
    the mapping's examples.

    The pipeline is: D(G) → apply C_S per association → transform through V
    → apply C_T.  {!examples} runs the same pipeline without dropping
    anything, recording each association's polarity instead.

    All entry points evaluate through an {!Engine.Eval_ctx}: D(G) and every
    per-subgraph F(J) go through the context's memo cache (when enabled),
    which is what makes the interactive offer/rotate/refine loop cheap.
    For one-shot evaluation over a bare [Database.t], build a context with
    [Engine.Eval_ctx.transient]. *)

open Relational
open Fulldisj

(** D(G) for the mapping's query graph. *)
val data_associations : Engine.Eval_ctx.t -> Mapping.t -> Full_disjunction.result

(** All examples of the mapping: one per data association, tagged positive
    or negative (Definition 4.1). *)
val examples : Engine.Eval_ctx.t -> Mapping.t -> Example.t list

(** Q_M(d) for a single association tuple: [Some t] if [d] passes C_S and
    [t] passes C_T, else [None]. *)
val apply_one : Full_disjunction.result -> Mapping.t -> Tuple.t -> Tuple.t option

(** [apply fd m] — Q_M over the associations [fd] ([m]'s filters compiled
    once): the target tuples of the rows that pass C_S and whose tuple
    passes C_T, distinct, in row order.  Every evaluation of a mapping
    over a D(G) result or one of its restrictions goes through here. *)
val apply : Full_disjunction.result -> Mapping.t -> Relation.t

(** The mapping query result: a subset of the target relation (distinct). *)
val eval : Engine.Eval_ctx.t -> Mapping.t -> Relation.t

(** Positive examples only, as a relation over the target schema — the
    "target viewer" contents for this mapping. *)
val target_view : Engine.Eval_ctx.t -> Mapping.t -> Relation.t
