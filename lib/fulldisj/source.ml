open Relational
module Qgraph = Querygraph.Qgraph

type t = {
  lookup : string -> Relation.t option;
  fj_hook : (Qgraph.t -> Relation.t) option;
  pool : Par.Pool.t option;
}

let of_fn lookup = { lookup; fj_hook = None; pool = None }
let of_db db = of_fn (Database.find db)
let with_fj hook t = { t with fj_hook = Some hook }
let with_pool pool t = { t with pool }
let lookup t = t.lookup
let fj_hook t = t.fj_hook
let pool t = t.pool
let scheme t g = Qgraph.scheme ~lookup:t.lookup g
