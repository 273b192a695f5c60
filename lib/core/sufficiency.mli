(** Sufficient illustrations (Definitions 4.2–4.6).

    Requirements are derived from the {e universe} — the set of all examples
    of the mapping (one per data association) — so only satisfiable slots
    are generated:

    - one example per non-empty coverage category (Def 4.2, the query graph);
    - per category, one positive and one negative example when such exist
      (Def 4.4, the filters);
    - per category and target attribute B, a positive example with t[B]
      non-null and one with t[B] null, when such exist (Def 4.5, the value
      correspondences).

    {!select} computes a small sufficient illustration by greedy set cover
    (exact minimality is NP-hard; the greedy solution is within the usual
    logarithmic factor and is what "efficiently select a minimal sufficient
    illustration" calls for in practice). *)

open Fulldisj

type requirement =
  | Cover of Coverage.t
  | Polarity of Coverage.t * bool  (** [true] = a positive example *)
  | Attr_null of Coverage.t * string * bool
      (** positive example whose target attr is null ([true]) / non-null *)

val pp_requirement : Format.formatter -> requirement -> unit

(** Does one example satisfy one requirement? [target_cols] fixes target
    tuple layout. *)
val satisfies : target_cols:string list -> Example.t -> requirement -> bool

(** All satisfiable requirements, per definition cited above. *)
val requirements :
  universe:Example.t list -> target_cols:string list -> requirement list

(** Requirements of Def 4.2 / 4.4 / 4.5 separately. *)
val graph_requirements : universe:Example.t list -> requirement list

val filter_requirements : universe:Example.t list -> requirement list

val correspondence_requirements :
  universe:Example.t list -> target_cols:string list -> requirement list

(** Unsatisfied requirements of an illustration. *)
val missing :
  universe:Example.t list ->
  target_cols:string list ->
  Example.t list ->
  requirement list

val is_sufficient_graph :
  universe:Example.t list -> target_cols:string list -> Example.t list -> bool

val is_sufficient_filters :
  universe:Example.t list -> target_cols:string list -> Example.t list -> bool

val is_sufficient_correspondences :
  universe:Example.t list -> target_cols:string list -> Example.t list -> bool

(** Sufficient for the whole mapping (Def 4.6). *)
val is_sufficient :
  universe:Example.t list -> target_cols:string list -> Example.t list -> bool

(** Greedy minimal sufficient illustration drawn from the universe.
    [seed] examples are always included (used by continuous evolution).
    Each round takes the first example, in universe order, that meets
    the most unmet requirements; examples are grouped once by what they
    can satisfy, so a round scores one example per group. *)
val select :
  ?seed:Example.t list ->
  universe:Example.t list ->
  target_cols:string list ->
  unit ->
  Example.t list

(** Exact minimum-size sufficient illustration by branch-and-bound over
    the candidate examples, with the greedy solution as the initial upper
    bound.  Exponential in the worst case — intended for small universes
    (tests, and measuring how far greedy is from optimal); [max_universe]
    (default 64) guards against misuse by falling back to {!select}. *)
val select_exact :
  ?max_universe:int ->
  universe:Example.t list ->
  target_cols:string list ->
  unit ->
  Example.t list
