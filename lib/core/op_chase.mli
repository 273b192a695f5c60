(** The data chase operator (Section 5.2).

    The user selects a value [v] of attribute Q[A] appearing in the current
    illustration; Clio locates every occurrence of [v] in relations not yet
    referenced by the mapping, and for each occurrence R[B] offers the
    extension of the query graph with node R and the outer-equijoin edge
    Q.A = R.B. *)

open Relational
module Qgraph = Querygraph.Qgraph

type occurrence = { rel : string; column : string; count : int }

type alternative = {
  mapping : Mapping.t;
  new_alias : string;
  occurrence : occurrence;
  description : string;
}

(** Occurrences of the value in relations not referenced by the mapping
    (Section 5.2 restricts the chase to new relations).  One scan of every
    relation's interned id columns ({!Relational.Database.find_value_in}),
    fanned out over the context's pool. *)
val occurrences : Engine.Eval_ctx.t -> Mapping.t -> Value.t -> occurrence list

(** All chase occurrences of a value anywhere in the database, including
    mapped relations — the Figure 5 display ("002 appears in one attribute
    of SBPS and in two attributes of XmasBar"). *)
val occurrences_anywhere : Engine.Eval_ctx.t -> Value.t -> occurrence list

(** The operator.  [attr] is Q[A] (Q an alias of the mapping's graph);
    raises [Invalid_argument] if Q is not in the graph.  The optional
    [illustration] is validated to actually exhibit [value] in Q[A] —
    chases start from data the user can see. *)
val chase :
  ?illustration:Example.t list ->
  Engine.Eval_ctx.t ->
  Mapping.t ->
  attr:Attr.t ->
  value:Value.t ->
  alternative list
