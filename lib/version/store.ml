open Relational
module J = Obs.Json
module Int_set = Set.Make (Int)

let main = "main"

type kind =
  | Root
  | Apply of Op.t
  | Branch_from of string
  | Merge of {
      from_branch : string;
      inserts : (string * Value.t array list) list;
    }

type commit = {
  cid : int;
  branch : string;
  parent : int option;
  merge_parent : int option;
  kind : kind;
}

type t = {
  spec : Scenario.t;
  resolve : Scenario.t -> Clio.Workspace.t;
  by_cid : (int, commit) Hashtbl.t;
  heads : (string, int) Hashtbl.t;
  states : (string, Clio.Workspace.t) Hashtbl.t;
  mutable branch_order : string list;  (** creation order, oldest first *)
  mutable next_cid : int;
}

let spec t = t.spec
let branch_names t = t.branch_order
let has_branch t name = Hashtbl.mem t.states name

let checkout t branch =
  match Hashtbl.find_opt t.states branch with
  | Some ws -> ws
  | None -> invalid_arg (Printf.sprintf "unknown branch %S" branch)

let head t branch =
  match Hashtbl.find_opt t.heads branch with
  | Some cid -> cid
  | None -> invalid_arg (Printf.sprintf "unknown branch %S" branch)

let commit_of_cid t cid = Hashtbl.find t.by_cid cid

let version_of ws = Clio.Eval_ctx.version (Clio.Workspace.ctx ws)

let branches t =
  List.map (fun b -> (b, version_of (checkout t b))) t.branch_order

(* Append a commit for [branch] (which must already have a state). *)
let record t ~branch ~merge_parent kind =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  let parent = Hashtbl.find_opt t.heads branch in
  let c = { cid; branch; parent; merge_parent; kind } in
  Hashtbl.replace t.by_cid cid c;
  Hashtbl.replace t.heads branch cid;
  c

let create ~resolve spec =
  let t =
    {
      spec;
      resolve;
      by_cid = Hashtbl.create 64;
      heads = Hashtbl.create 8;
      states = Hashtbl.create 8;
      branch_order = [ main ];
      next_cid = 0;
    }
  in
  Hashtbl.replace t.states main (resolve spec);
  ignore (record t ~branch:main ~merge_parent:None Root);
  t

let commit t ~branch op =
  let ws = checkout t branch in
  (* Apply the op a reload replays: its changelog form read back, so an
     integral [Float] cell is applied as the [Int] replay decodes. *)
  let op = Result.get_ok (Op.of_json (Op.to_json op)) in
  (* Apply first: an op that raises leaves no trace in the changelog. *)
  let ws' = Op.apply ws op in
  Hashtbl.replace t.states branch ws';
  ignore (record t ~branch ~merge_parent:None (Apply op));
  Obs.count Obs.Names.version_commits;
  ws'

let branch t ~from name =
  if has_branch t name then
    invalid_arg (Printf.sprintf "branch %S already exists" name);
  if name = "" then invalid_arg "branch name must be non-empty";
  let base = checkout t from in
  (* The fork point: every database version at or below this one is trunk
     state shared with the source branch, which is what makes ancestor
     cache entries (and future promotions from them) cross-branch. *)
  let ws = Clio.Workspace.with_branch_root base (version_of base) in
  Hashtbl.replace t.states name ws;
  Hashtbl.replace t.heads name (head t from);
  t.branch_order <- t.branch_order @ [ name ];
  let c = record t ~branch:name ~merge_parent:None (Branch_from from) in
  ignore c;
  Obs.count Obs.Names.version_branches;
  ws

(* Every cid reachable from [cid] through parent and merge-parent edges
   (inclusive) — the commit's ancestry in the DAG. *)
let ancestors t cid =
  let rec go seen = function
    | [] -> seen
    | cid :: rest ->
        if Int_set.mem cid seen then go seen rest
        else
          let c = commit_of_cid t cid in
          let rest =
            match (c.parent, c.merge_parent) with
            | Some p, Some m -> p :: m :: rest
            | Some p, None -> p :: rest
            | None, Some m -> m :: rest
            | None, None -> rest
          in
          go (Int_set.add cid seen) rest
  in
  go Int_set.empty [ cid ]

(* Lowest common ancestor: the newest cid in both ancestries.  Cids are
   issued monotonically, so "max common cid" is the nearest fork point. *)
let lca t ~a ~b =
  let inter = Int_set.inter (ancestors t (head t a)) (ancestors t (head t b)) in
  Int_set.max_elt_opt inter

let total_rows ws =
  List.fold_left
    (fun acc r -> acc + Relation.cardinality r)
    0
    (Database.relations (Clio.Workspace.db ws))

(* Merge [from] into [into]: fold in the example tuples recorded by
   commits reachable from [from]'s head but not already in [into]'s
   ancestry — the paper's "independently confirmed examples" reuse story
   at branch granularity.  Mapping-state ops (offer/rotate/...) stay on
   their branch: what merges is data.  The inserts are materialized into
   the merge commit so changelog replay never needs the source branch's
   state.  [add_tuples] dedups structurally, so merging is idempotent and
   insensitive to overlapping inserts.  Returns the number of genuinely
   new rows; a merge with nothing to do returns 0 and records nothing. *)
let merge t ~into ~from =
  let ws = checkout t into in
  let from_head = head t from in
  let seen = ancestors t (head t into) in
  let pending =
    Int_set.fold
      (fun cid acc ->
        if Int_set.mem cid seen then acc else commit_of_cid t cid :: acc)
      (ancestors t from_head) []
    |> List.sort (fun a b -> compare a.cid b.cid)
  in
  if pending = [] then 0
  else begin
    let inserts =
      List.concat_map
        (fun c ->
          match c.kind with
          | Apply (Op.Insert { relation; rows }) -> [ (relation, rows) ]
          | Merge { inserts; _ } -> inserts
          | Root | Apply _ | Branch_from _ -> [])
        pending
    in
    let before = total_rows ws in
    let ws' =
      List.fold_left
        (fun ws (relation, rows) -> Clio.Workspace.add_tuples ws relation rows)
        ws inserts
    in
    Hashtbl.replace t.states into ws';
    ignore
      (record t ~branch:into ~merge_parent:(Some from_head)
         (Merge { from_branch = from; inserts }));
    Obs.count Obs.Names.version_merges;
    total_rows ws' - before
  end

let relation_rows ws =
  List.map
    (fun r -> (Relation.name r, Relation.cardinality r))
    (Database.relations (Clio.Workspace.db ws))

(* A stats-shaped comparison of two branches, served through the existing
   [Stats_report] reply: where they forked, how far each side has moved,
   and the per-relation row drift. *)
let diff t ~a ~b =
  let wa = checkout t a and wb = checkout t b in
  let anc_a = ancestors t (head t a) and anc_b = ancestors t (head t b) in
  let ahead = Int_set.cardinal (Int_set.diff anc_a anc_b)
  and behind = Int_set.cardinal (Int_set.diff anc_b anc_a) in
  let rows_a = relation_rows wa and rows_b = relation_rows wb in
  let drift =
    List.filter_map
      (fun (rel, na) ->
        let nb = Option.value ~default:0 (List.assoc_opt rel rows_b) in
        if na = nb then None
        else Some ("diff.rows." ^ rel, float_of_int (na - nb)))
      rows_a
  in
  [
    ( "diff.lca_cid",
      match lca t ~a ~b with Some c -> float_of_int c | None -> -1. );
    ("diff.ahead", float_of_int ahead);
    ("diff.behind", float_of_int behind);
    ("diff.version.a", float_of_int (version_of wa));
    ("diff.version.b", float_of_int (version_of wb));
    ("diff.entries.a", float_of_int (List.length (Clio.Workspace.entries wa)));
    ("diff.entries.b", float_of_int (List.length (Clio.Workspace.entries wb)));
  ]
  @ drift

(* The linear history of one branch: parent edges from its head back to
   the root (running through the fork into trunk), oldest first.  Merge
   commits stand for their materialized inserts, so the result is a plain
   op sequence — the oracle the qcheck linearization property replays. *)
let linear_ops t ~branch =
  let rec back acc cid =
    let c = commit_of_cid t cid in
    let acc = c :: acc in
    match c.parent with None -> acc | Some p -> back acc p
  in
  back [] (head t branch)
  |> List.concat_map (fun c ->
         match c.kind with
         | Apply op -> [ op ]
         | Merge { inserts; _ } ->
             List.map
               (fun (relation, rows) -> Op.Insert { relation; rows })
               inserts
         | Root | Branch_from _ -> [])

let log t ~branch =
  let rec back acc cid =
    let c = commit_of_cid t cid in
    match c.parent with None -> c :: acc | Some p -> back (c :: acc) p
  in
  back [] (head t branch)

(* --- integrity digest ---

   A cheap structural fingerprint of one branch's full state: the rendered
   database plus the workspace shape (entries, labels, graphs, active id).
   [save] records it per branch; [load] recomputes after replay and
   refuses to resume from a snapshot whose changelog does not reproduce it
   byte-for-byte.  The input text (each relation's [Render.relation] text,
   concatenated, then the workspace lines) is therefore part of the
   on-disk format: changing it would make every saved store fail to
   load. *)
let state_digest t branchname =
  let ws = checkout t branchname in
  let b = Buffer.create 4096 in
  List.iter
    (fun r -> Buffer.add_string b (Render.relation r))
    (Database.relations (Clio.Workspace.db ws));
  let active = (Clio.Workspace.active ws).Clio.Workspace.id in
  Buffer.add_string b (Printf.sprintf "active=%d\n" active);
  List.iter
    (fun (e : Clio.Workspace.entry) ->
      Buffer.add_string b
        (Printf.sprintf "[%d] %s — %s\n" e.id e.label
           (Querygraph.Qgraph.to_string e.mapping.Clio.Mapping.graph)))
    (Clio.Workspace.entries ws);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- persistence: snapshot.json + changelog.jsonl --------------------- *)

let format_version = 1

let kind_json = function
  | Root -> J.Obj [ ("kind", J.Str "root") ]
  | Apply op -> J.Obj [ ("kind", J.Str "apply"); ("op", Op.to_json op) ]
  | Branch_from from -> J.Obj [ ("kind", J.Str "branch"); ("from", J.Str from) ]
  | Merge { from_branch; inserts } ->
      J.Obj
        [
          ("kind", J.Str "merge");
          ("from", J.Str from_branch);
          ( "inserts",
            J.Arr
              (List.map
                 (fun (relation, rows) ->
                   J.Obj
                     [
                       ("relation", J.Str relation);
                       ("rows", Op.json_of_rows rows);
                     ])
                 inserts) );
        ]

let kind_of_json j =
  match J.str "kind" j with
  | "root" -> Root
  | "apply" -> (
      match Op.of_json (J.field "op" j) with
      | Ok op -> Apply op
      | Error msg -> raise (J.Bad msg))
  | "branch" -> Branch_from (J.str "from" j)
  | "merge" ->
      let from_branch = J.str "from" j in
      Merge
        {
          from_branch;
          inserts =
            List.map
              (fun item ->
                let relation = J.str "relation" item in
                (relation, Op.rows_of_json (J.arr "rows" item)))
              (J.arr "inserts" j);
        }
  | k -> raise (J.Bad (Printf.sprintf "unknown commit kind %S" k))

let commit_json c =
  J.Obj
    [
      ("cid", J.Num (float_of_int c.cid));
      ("branch", J.Str c.branch);
      ( "parent",
        match c.parent with None -> J.Null | Some p -> J.Num (float_of_int p)
      );
      ( "merge_parent",
        match c.merge_parent with
        | None -> J.Null
        | Some p -> J.Num (float_of_int p) );
      ("what", kind_json c.kind);
    ]

let commit_of_json j =
  let cid = J.int "cid" j in
  let branch = J.str "branch" j in
  let parent = J.opt J.int "parent" j in
  let merge_parent = J.opt J.int "merge_parent" j in
  { cid; branch; parent; merge_parent; kind = kind_of_json (J.field "what" j) }

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let snapshot_file dir = Filename.concat dir "snapshot.json"
let changelog_file dir = Filename.concat dir "changelog.jsonl"

let save t ~dir =
  mkdir_p dir;
  let commits =
    Hashtbl.fold (fun _ c acc -> c :: acc) t.by_cid []
    |> List.sort (fun a b -> compare a.cid b.cid)
  in
  let changelog = Buffer.create 4096 in
  List.iter
    (fun c ->
      Buffer.add_string changelog (J.to_string (commit_json c));
      Buffer.add_char changelog '\n')
    commits;
  write_file (changelog_file dir) (Buffer.contents changelog);
  let snapshot =
    J.Obj
      [
        ("format", J.Num (float_of_int format_version));
        ("spec", Scenario.to_json t.spec);
        ("next_cid", J.Num (float_of_int t.next_cid));
        ( "branches",
          J.Arr
            (List.map
               (fun b ->
                 J.Obj
                   [
                     ("name", J.Str b);
                     ("head", J.Num (float_of_int (head t b)));
                     ("digest", J.Str (state_digest t b));
                   ])
               t.branch_order) );
      ]
  in
  write_file (snapshot_file dir) (J.to_string snapshot);
  Obs.count Obs.Names.version_snapshot_saves

let fail fmt = Printf.ksprintf failwith fmt

(* Rebuild a store by replaying the changelog in cid order over a freshly
   resolved root.  Database versions are process-global and differ from
   the saved run's, but every content digest is version-independent, so a
   faithful replay reproduces each branch's recorded state digest — which
   is verified before the store is handed back. *)
let load ~resolve ~dir () =
  let parse what text =
    match J.parse text with
    | Ok j -> j
    | Error msg -> fail "Store.load: unreadable %s: %s" what msg
  in
  let snap = parse "snapshot" (read_file (snapshot_file dir)) in
  try
    if J.int "format" snap <> format_version then
      fail "Store.load: unsupported snapshot format";
    let spec =
      match Scenario.of_json (J.field "spec" snap) with
      | Ok s -> s
      | Error msg -> raise (J.Bad msg)
    in
    let t =
      {
        spec;
        resolve;
        by_cid = Hashtbl.create 64;
        heads = Hashtbl.create 8;
        states = Hashtbl.create 8;
        branch_order = [];
        next_cid = 0;
      }
    in
    let lines =
      String.split_on_char '\n' (read_file (changelog_file dir))
      |> List.filter (fun l -> String.trim l <> "")
    in
    List.iter
      (fun line ->
        let c = commit_of_json (parse "changelog line" line) in
        if c.cid <> t.next_cid then
          fail "Store.load: changelog gap at cid %d" c.cid;
        (match c.kind with
        | Root -> Hashtbl.replace t.states c.branch (resolve spec)
        | Apply op ->
            let ws = checkout t c.branch in
            Hashtbl.replace t.states c.branch (Op.apply ws op)
        | Branch_from from ->
            let base = checkout t from in
            Hashtbl.replace t.states c.branch
              (Clio.Workspace.with_branch_root base (version_of base))
        | Merge { inserts; _ } ->
            let ws = checkout t c.branch in
            Hashtbl.replace t.states c.branch
              (List.fold_left
                 (fun ws (relation, rows) ->
                   Clio.Workspace.add_tuples ws relation rows)
                 ws inserts));
        if not (List.mem c.branch t.branch_order) then
          t.branch_order <- t.branch_order @ [ c.branch ];
        Hashtbl.replace t.by_cid c.cid c;
        Hashtbl.replace t.heads c.branch c.cid;
        t.next_cid <- c.cid + 1;
        Obs.count Obs.Names.version_snapshot_commits_replayed)
      lines;
    List.iter
      (fun b ->
        let name = J.str "name" b in
        let digest = J.str "digest" b in
        if not (has_branch t name) then
          fail "Store.load: snapshot branch %S missing from changelog" name;
        let got = state_digest t name in
        if got <> digest then
          fail "Store.load: replay of branch %S diverged (digest %s, snapshot %s)"
            name got digest)
      (J.arr "branches" snap);
    Obs.count Obs.Names.version_snapshot_loads;
    t
  with J.Bad msg -> fail "Store.load: %s" msg
