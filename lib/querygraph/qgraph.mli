(** Query graphs (Definition 3.3): undirected, connected graphs whose nodes
    are relation occurrences and whose edges carry conjunctions of join
    predicates.

    A node is an {e occurrence}: an alias (e.g. ["Parents2"]) over a base
    relation (["Parents"]).  The paper assumes copies are renamed apart; the
    node structure makes that explicit and lets us materialize the renamed
    relation on demand. *)

open Relational

type node = { alias : string; base : string }

type edge = {
  n1 : string;  (** alias *)
  n2 : string;  (** alias *)
  pred : Predicate.t;  (** conjunction of join predicates over the two nodes' attrs *)
}

type t

val empty : t

(** [add_node g ~alias ~base].  Raises [Invalid_argument] on duplicate
    alias. *)
val add_node : t -> alias:string -> base:string -> t

(** Add an edge between two existing aliases; the predicate must be strong
    over the combined scheme (checked lazily by callers that have schemas).
    Edges are undirected: [(a,b)] and [(b,a)] are the same edge; adding a
    second edge between the same pair conjoins the predicates. *)
val add_edge : t -> string -> string -> Predicate.t -> t

(** Convenience: a single-node graph. *)
val singleton : alias:string -> base:string -> t

(** Build from node and edge lists. *)
val make : (string * string) list -> (string * string * Predicate.t) list -> t

val nodes : t -> node list  (* sorted by alias *)
val aliases : t -> string list  (* sorted *)
val edges : t -> edge list
val node_count : t -> int
val edge_count : t -> int
val mem_node : t -> string -> bool
val base_of : t -> string -> string  (** Raises [Not_found]. *)

(** Edge between two aliases, if any (orientation-insensitive). *)
val find_edge : t -> string -> string -> edge option

(** Aliases adjacent to the given alias. *)
val neighbours : t -> string -> string list

val is_connected : t -> bool

(** The one order every join over the graph follows: F(J), the outer-join
    plans of D(G), the Section 2 SQL and [Fulldisj.Plan]'s EXPLAIN.
    Breadth-first from [root] (default: the first alias), visiting
    neighbours in alias order; each alias comes with the predicates of its
    edges to the aliases placed before it, most recently placed first
    ([[]] for the root, exactly one predicate per later alias on a tree).
    Covers the aliases reachable from [root].  [[]] for the empty graph;
    raises [Invalid_argument] when [root] is not a node. *)
val join_plan : ?root:string -> t -> (string * Predicate.t list) list

(** Subgraph induced by a set of aliases (keeps edges with both endpoints
    inside). *)
val induced : t -> string list -> t

(** Union of nodes and edges.  Edges present in both with different
    predicates raise [Invalid_argument] (the paper's walk condition forbids
    relabeling existing edges); nodes must agree on base. *)
val union : t -> t -> t

(** Fresh alias for [base] not clashing with existing aliases
    ([Parents2], [Parents3], ...). *)
val fresh_alias : t -> string -> string

(** The combined scheme of the graph: concatenation of each node's base
    schema renamed to its alias, in sorted alias order.  [lookup] resolves a
    base relation name. *)
val scheme : lookup:(string -> Relation.t option) -> t -> Schema.t

(** The relation instance for one node (base relation renamed to alias). *)
val node_relation : lookup:(string -> Relation.t option) -> t -> string -> Relation.t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
