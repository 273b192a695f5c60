(* The four served-request workloads: which scenarios they open and the
   request script of every cycle, derived from the run seed alone.  The
   server only ever sees these generated requests.

   A cycle starts with [Open_session] and ends with [Close_session]
   (restart cycles address sessions restored from disk instead); the
   load generator fills in the session id from the [Opened] reply.  Cycles are
   independent: each opens a fresh session at the scenario's root state,
   so any completed cycle can be replayed on its own. *)

open Relational
module P = Server.Protocol

type workload = Paper_session | Chain_explore | Chain_edit | Restart

let all = [ Paper_session; Chain_explore; Chain_edit; Restart ]

let name = function
  | Paper_session -> "paper-session"
  | Chain_explore -> "chain-explore"
  | Chain_edit -> "chain-edit"
  | Restart -> "restart"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Instance sizes.  [full] is the measured configuration; [smoke] keeps
   every code path but runs each workload in about a second. *)
type sizes = {
  explore_rows : int;
  explore_pool : int;  (** distinct chain seeds chain-explore cycles over *)
  edit_rows : int;
  restart_rows : int;
  restart_inserts : int;  (** inserts per session in the pristine store *)
}

let full =
  {
    explore_rows = 4000;
    explore_pool = 48;
    edit_rows = 2000;
    restart_rows = 2000;
    restart_inserts = 30;
  }

let smoke =
  {
    explore_rows = 200;
    explore_pool = 4;
    edit_rows = 150;
    restart_rows = 150;
    restart_inserts = 4;
  }

(* Closed-loop clients per workload: one per core of the 2-core hosts the
   benchmark was calibrated on, each with one request in flight. *)
let clients = 2

(* Rows included in every evaluate reply. *)
let limit = Some 20

(* Edits per restart cycle and session. *)
let restart_edits = 5

(* Scenario seeds: distinct per run seed and per pool slot. *)
let derive seed slot = (seed * 1000) + slot

let chain rows seed = P.Chain { n = 3; rows; seed }
let explore_spec sizes ~seed i = chain sizes.explore_rows (derive seed (i mod sizes.explore_pool))
let edit_spec sizes ~seed = chain sizes.edit_rows (derive seed 900)
let restart_spec sizes ~seed = chain sizes.restart_rows (derive seed 901)

(* A new R1 tuple (id, payload, fk_R2).  The key is unique per client,
   cycle and edit and lies outside the generated key space; the foreign
   key lands in R2's key space at a seed-chosen position. *)
let r1_row ~rows ~seed ~client ~cycle ~edit =
  let key = 1_000_000 + (cycle * 64) + (client * 32) + edit in
  [|
    Value.Int key;
    Value.String (Printf.sprintf "edit-%d" key);
    Value.Int (Hashtbl.hash (seed, client, cycle, edit) mod rows);
  |]

let insert_r1 ~rows ~seed ~client ~cycle ~edit =
  P.Insert
    { relation = "R1"; rows = [ r1_row ~rows ~seed ~client ~cycle ~edit ] }

(* A new Children tuple of the paper's Figure 1 database. *)
let child_row ~seed ~client ~cycle =
  [|
    Value.String (Printf.sprintf "k%d-%d-%d" seed client cycle);
    Value.String (Printf.sprintf "Kid-%d-%d" client cycle);
    Value.Int (abs (seed + cycle) mod 12);
    Value.String "103";
    Value.String "104";
    Value.String "d31";
  |]

let ev what = P.Evaluate { what; limit }
let chain_walk = P.Offer { start = "R1"; goal = "R3"; max_len = 3 }

(* The request script of one cycle.  Restart has no open/close cycles;
   see [restart_setup] and [restart_edit]. *)
let cycle sizes w ~seed ~client ~cycle =
  match w with
  | Paper_session ->
      [
        P.Open_session P.Paper;
        P.Offer { start = "Children"; goal = "PhoneDir"; max_len = 2 };
        ev P.Dg;
        P.Rotate;
        ev P.Target;
        P.Select { entry = 1 };
        ev P.Fj;
        P.Rank;
        P.Confirm;
        P.Insert
          { relation = "Children"; rows = [ child_row ~seed ~client ~cycle ] };
        ev P.Target;
        P.Close_session;
      ]
  | Chain_explore ->
      [
        P.Open_session
          (explore_spec sizes ~seed ((cycle * clients) + client));
        chain_walk;
        ev P.Dg;
        P.Rotate;
        ev P.Dg;
        ev P.Target;
        ev P.Fj;
        P.Rank;
        P.Confirm;
        P.Close_session;
      ]
  | Chain_edit ->
      let insert edit =
        insert_r1 ~rows:sizes.edit_rows ~seed ~client ~cycle ~edit
      in
      let edit e =
        [ insert e; ev P.Dg ]
        @
        if e mod 4 <> 0 then []
        else
          let fork = Printf.sprintf "fork-%d" e in
          [
            P.Branch { name = fork };
            insert (e + 8);
            ev P.Dg;
            P.Checkout { name = "edits" };
            P.Merge { from_ = fork };
            ev P.Target;
          ]
      in
      [
        P.Open_session (edit_spec sizes ~seed);
        chain_walk;
        P.Confirm;
        P.Branch { name = "edits" };
      ]
      @ List.concat_map edit (List.init 8 succ)
      @ [ P.Close_session ]
  | Restart -> invalid_arg "Script.cycle: restart has no open/close cycles"

(* Warm-up before the timed window, per client: two full paper cycles;
   every chain-explore pool seed opened once (the clients split the
   pool); one chain-edit cycle.  Warm-up cycles use negative indices so
   their inserted keys never repeat a window cycle's. *)
let warmup sizes w ~seed ~client =
  match w with
  | Paper_session ->
      List.init 2 (fun i -> cycle sizes w ~seed ~client ~cycle:(-1 - i))
  | Chain_explore ->
      List.filter_map
        (fun i ->
          if i mod clients <> client then None
          else Some [ P.Open_session (explore_spec sizes ~seed i); P.Close_session ])
        (List.init sizes.explore_pool Fun.id)
  | Chain_edit -> [ cycle sizes w ~seed ~client ~cycle:(-1) ]
  | Restart -> []

(* Restart: each client's session of the pristine store — walk, confirm,
   branch [edits], then [restart_inserts] edits.  Left open, so the
   server's [--store-dir] drain persists it. *)
let restart_setup sizes ~seed ~client =
  let rows = sizes.restart_rows in
  [
    P.Open_session (restart_spec sizes ~seed);
    chain_walk;
    P.Confirm;
    P.Branch { name = "edits" };
  ]
  @ List.init sizes.restart_inserts (fun edit ->
        insert_r1 ~rows ~seed ~client ~cycle:0 ~edit)

(* Restart cycle [c] (from 0): the acknowledged edits each session makes
   before the server is killed, each followed by the evaluation it must
   show. *)
let restart_edit sizes ~seed ~client ~cycle =
  List.concat
    (List.init restart_edits (fun edit ->
         [
           insert_r1 ~rows:sizes.restart_rows ~seed ~client ~cycle:(cycle + 1)
             ~edit;
           ev P.Dg;
         ]))

(* Verbs pooled into [control_p50_ms]: they touch no relation data. *)
let control_verbs =
  [ "rotate"; "select"; "confirm"; "rank"; "branch"; "checkout"; "close" ]
