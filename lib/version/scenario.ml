open Relational
module J = Obs.Json
module Qgraph = Querygraph.Qgraph

type t =
  | Paper
  | Chain of { n : int; rows : int; seed : int }
  | Star of { leaves : int; rows : int; seed : int }

let to_string = function
  | Paper -> "paper"
  | Chain { n; rows; seed } ->
      Printf.sprintf "chain(n=%d,rows=%d,seed=%d)" n rows seed
  | Star { leaves; rows; seed } ->
      Printf.sprintf "star(leaves=%d,rows=%d,seed=%d)" leaves rows seed

let validate = function
  | Paper -> Ok ()
  | Chain { n; rows; seed = _ } ->
      if n < 2 || n > 8 then Error "chain: n must be in 2..8"
      else if rows < 1 || rows > 200_000 then
        Error "chain: rows must be in 1..200000"
      else Ok ()
  | Star { leaves; rows; seed = _ } ->
      if leaves < 1 || leaves > 8 then Error "star: leaves must be in 1..8"
      else if rows < 1 || rows > 200_000 then
        Error "star: rows must be in 1..200000"
      else Ok ()

let to_json = function
  | Paper -> J.Obj [ ("kind", J.Str "paper") ]
  | Chain { n; rows; seed } ->
      J.Obj
        [
          ("kind", J.Str "chain");
          ("n", J.Num (float_of_int n));
          ("rows", J.Num (float_of_int rows));
          ("seed", J.Num (float_of_int seed));
        ]
  | Star { leaves; rows; seed } ->
      J.Obj
        [
          ("kind", J.Str "star");
          ("leaves", J.Num (float_of_int leaves));
          ("rows", J.Num (float_of_int rows));
          ("seed", J.Num (float_of_int seed));
        ]

let of_json j =
  J.decode
    (fun j ->
      match J.str "kind" j with
      | "paper" -> Paper
      | "chain" ->
          let n = J.int "n" j in
          let rows = J.int "rows" j in
          Chain { n; rows; seed = J.int ~default:0 "seed" j }
      | "star" ->
          let leaves = J.int "leaves" j in
          let rows = J.int "rows" j in
          Star { leaves; rows; seed = J.int ~default:0 "seed" j }
      | k -> raise (J.Bad (Printf.sprintf "unknown kind %S" k)))
    j
  |> Result.map_error (( ^ ) "scenario: ")

(* The initial mapping is deliberately small — one node, one identity
   correspondence — so a session starts where the paper's Section 5
   refinement loop starts: offer walks, inspect, confirm. *)
let rooted_mapping ~root =
  Clio.Mapping.make
    ~graph:(Qgraph.singleton ~alias:root ~base:root)
    ~target:"Out" ~target_cols:[ "c" ]
    ~correspondences:[ Clio.Correspondence.identity "c" (Attr.make root "id") ]
    ()

let resolve_fresh spec =
  (match validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scenario.resolve: " ^ msg));
  match spec with
  | Paper ->
      ( Paperdata.Figure1.database,
        Paperdata.Figure1.kb,
        Paperdata.Running.mapping_g1 )
  | Chain { n; rows; seed } ->
      let inst =
        Synth.Gen_graph.chain
          (Random.State.make [| seed |])
          ~n ~rows ~null_prob:0.25 ~orphan_prob:0.2 ()
      in
      (inst.Synth.Gen_graph.db, inst.Synth.Gen_graph.kb, rooted_mapping ~root:"R1")
  | Star { leaves; rows; seed } ->
      let inst =
        Synth.Gen_graph.star
          (Random.State.make [| seed |])
          ~leaves ~rows ~null_prob:0.25 ~orphan_prob:0.2 ()
      in
      ( inst.Synth.Gen_graph.db,
        inst.Synth.Gen_graph.kb,
        rooted_mapping ~root:"Fact" )

(* Memo keyed by the spec value itself (immutable variants compare
   structurally).  The paper scenario is already a program-wide constant;
   the memo extends the same sharing to synthetic specs, so a fleet of
   sessions forking one scenario all key their cache entries to a single
   database version. *)
let memo : (t, Database.t * Schemakb.Kb.t * Clio.Mapping.t) Hashtbl.t =
  Hashtbl.create 8

(* Sessions open concurrently on worker domains; the lock covers the whole
   miss path so two domains resolving the same spec agree on one value. *)
let memo_mutex = Mutex.create ()

let resolve spec =
  Mutex.protect memo_mutex (fun () ->
      match Hashtbl.find_opt memo spec with
      | Some r -> r
      | None ->
          let r = resolve_fresh spec in
          Hashtbl.add memo spec r;
          r)
