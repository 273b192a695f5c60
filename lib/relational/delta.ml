type kind =
  | Insert of { relation : string; tuples : Tuple.t list }
  | New_relation of string
  | Constraints_only

type t = { from_version : int; to_version : int; kind : kind }
