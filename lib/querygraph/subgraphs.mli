(** Enumeration of induced connected subgraphs.

    The categories of D(G) (Definition 3.11 and Section 4.2) are indexed by
    the induced connected subgraphs of the query graph; this module
    enumerates them exactly once each, using extension-based enumeration
    (no 2^n subset scan), so chains/trees of realistic size stay cheap. *)

(** All induced connected subgraphs, as alias sets (sorted lists).
    Includes all singletons; excludes the empty set. *)
val connected_node_sets : Qgraph.t -> string list list

(** Number of induced connected subgraphs (without materializing them
    beyond the enumeration itself). *)
val count : Qgraph.t -> int

(** [is_induced_connected g keep] — the subgraph induced by [keep] is
    connected (and non-empty). *)
val is_induced_connected : Qgraph.t -> string list -> bool
