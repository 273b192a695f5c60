(** The memo store behind {!Eval_ctx}: a single LRU bounded by an
    approximate byte budget, holding two tiers of evaluation results.

    - {e F(J) tier} — the materialized join of one induced connected
      subgraph, held as value-pool id columns and charged in those units
      ({!Relational.Relation.footprint_bytes}).  Shared across different
      query graphs (walk/chase alternatives contain mostly the same
      subgraphs).
    - {e D(G) tier} — a whole {!Fulldisj.Full_disjunction.result} per
      graph: its boxed rows, which the server renders as they are, and
      their coverage array.  Charged for the tuple blocks, the two array
      slots per row and the pooled values the cells reach, so the charge
      tracks the entry's reachable size.

    Keys combine the database {e version} ({!Relational.Database.version})
    with the canonical {!Graph_key}, so a mutated database simply stops
    hitting old entries and the stale ones age out of the LRU; nothing is
    ever served across versions.

    Lookups bump the [cache.fj.*] / [cache.dg.*] counters and the
    [cache.bytes_resident] gauge in {!Obs.Names} unconditionally (they are
    [Counter.bump]-style; reading them still requires [--stats] /
    [--metrics] surfaces).

    The store is domain-safe: every operation takes an internal mutex, so
    one cache may be shared by all domains of a [Par] pool.  Two domains
    missing the same key concurrently may compute the value twice; the
    results are equal by construction and the second insert replaces the
    first — hit/miss counters stay consistent (every lookup is counted
    exactly once). *)

open Relational
open Fulldisj

type t

val default_byte_budget : int

(** Raises [Invalid_argument] when [byte_budget <= 0]. *)
val create : ?byte_budget:int -> unit -> t

val find_fj : t -> version:int -> Graph_key.t -> Relation.t option
val add_fj : t -> version:int -> Graph_key.t -> Relation.t -> unit

val find_dg : t -> version:int -> Graph_key.t -> Full_disjunction.result option
val add_dg : t -> version:int -> Graph_key.t -> Full_disjunction.result -> unit

(** Probes like [find_*] but counting no hit/miss and leaving LRU recency
    untouched.  [peek_dg] is D(G) promotion's probe of an ancestor
    version: that entry's age is genuine until its promoted copy is
    re-inserted at the current version.  F(J) entries are never promoted;
    [peek_fj] inspects them. *)

val peek_fj : t -> version:int -> Graph_key.t -> Relation.t option

val peek_dg : t -> version:int -> Graph_key.t -> Full_disjunction.result option

(** Introspection (tests, [clio_cli stats]).  [mem_*] do not touch LRU
    recency and count no hit/miss. *)

val mem_fj : t -> version:int -> Graph_key.t -> bool
val mem_dg : t -> version:int -> Graph_key.t -> bool
val entry_count : t -> int
val bytes_resident : t -> int
val byte_budget : t -> int
val clear : t -> unit
