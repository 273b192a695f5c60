(** Deterministic random data generation for benchmarks and property tests.

    All generators take an explicit [Random.State.t]; the same seed yields
    the same database. *)

open Relational

type fk_spec = {
  target : string;  (** referenced relation *)
  null_prob : float;  (** probability the FK value is null *)
  orphan_prob : float;  (** probability it references a missing key *)
}

(** [relation st ~name ~rows ~payload_cols ~fks ~key_space] — a relation
    with an ["id"] key column (values [0 .. key_space-1], unique, sampled
    without replacement when [rows <= key_space]), [payload_cols] string
    columns, and one column ["fk_<target>"] per FK spec.  Orphan references
    land outside [0 .. key_space-1].  Built as {!Value_pool} id columns
    (the form a {!Database} stores); no boxed tuple is made. *)
val relation :
  Random.State.t ->
  name:string ->
  rows:int ->
  payload_cols:int ->
  fks:fk_spec list ->
  key_space:int ->
  Relation.t

(** A random tuple list over an arbitrary scheme with a given null rate and
    value domain size — used by property tests for subsumption-heavy
    inputs. *)
val sparse_tuples :
  Random.State.t -> rows:int -> arity:int -> null_prob:float -> domain:int -> Tuple.t list

(** Like {!sparse_tuples} but with Zipf-distributed values (exponent
    [s]≈1): a few very frequent values and a long tail, the regime where
    selectivity-aware index probing pays off (bench B1's skew variant). *)
val skewed_tuples :
  Random.State.t ->
  rows:int ->
  arity:int ->
  null_prob:float ->
  domain:int ->
  ?zipf_s:float ->
  unit ->
  Tuple.t list

(** [columnar_chain_relation st ~name ~rows ~fk] — a relation built
    directly as {!Value_pool} id columns (no boxed tuples on the
    generation path): an ["id"] key column [0 .. rows-1] plus, when
    [fk = Some (target, target_rows, null_prob)], one ["fk_<target>"]
    column drawn uniformly from the target's key space with the given
    null rate, and, with [?payload_domain:d], a ["pay"] column of
    strings drawn from [d] distinct relation-specific payloads (string
    work is what boxed kernels pay per operator and interning pays
    once). *)
val columnar_chain_relation :
  Random.State.t ->
  name:string ->
  rows:int ->
  ?payload_domain:int ->
  fk:(string * int * float) option ->
  unit ->
  Relation.t

(** A database of [names] chained by FK columns ([R1.fk_R2 = R2.id], …),
    [rows] tuples each, all built column-natively — the substrate of the
    million-tuple full-disjunction workload (bench B17). *)
val columnar_chain_db :
  Random.State.t ->
  names:string list ->
  rows:int ->
  ?payload_domain:int ->
  null_prob:float ->
  unit ->
  Database.t

(** Like {!sparse_tuples}, but as interned id columns: subsumption-heavy
    input for the columnar sweep at scales where boxing would dominate. *)
val sparse_columns :
  Random.State.t ->
  rows:int ->
  arity:int ->
  null_prob:float ->
  domain:int ->
  int array array
