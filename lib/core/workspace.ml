open Relational
module Eval_ctx = Engine.Eval_ctx

type entry = {
  id : int;
  mapping : Mapping.t;
  illustration : Illustration.t;
  label : string;
}

type t = {
  ctx : Eval_ctx.t;
  entries : entry list;
  active_id : int;
  next_id : int;
}

let fresh_illustration ctx (m : Mapping.t) =
  let universe = Mapping_eval.examples ctx m in
  Sufficiency.select ~universe ~target_cols:m.Mapping.target_cols ()

let create ctx ?(label = "initial") m =
  let entry =
    { id = 0; mapping = m; illustration = fresh_illustration ctx m; label }
  in
  { ctx; entries = [ entry ]; active_id = 0; next_id = 1 }

let ctx t = t.ctx
let db t = Eval_ctx.db t.ctx
let kb t = Eval_ctx.kb t.ctx
let with_branch_root t v = { t with ctx = Eval_ctx.with_branch_root t.ctx v }
let entries t = t.entries
let active t = List.find (fun e -> e.id = t.active_id) t.entries
let target_view t = Mapping_eval.target_view t.ctx (active t).mapping

let offer t ?labels mappings =
  if mappings = [] then invalid_arg "Workspace.offer: no alternatives";
  let old = active t in
  (* Labels as an array: [List.nth] per alternative is quadratic on wide
     alternative sets. *)
  let label_arr = match labels with Some ls -> Array.of_list ls | None -> [||] in
  let label i =
    if i < Array.length label_arr then label_arr.(i)
    else Printf.sprintf "alternative %d" (i + 1)
  in
  (* Evolving each alternative's illustration is independent of the others;
     ids and labels key off the input index, so the entries are identical to
     the sequential ones whatever the execution interleaving. *)
  let entries =
    Par.mapi
      ?pool:(Eval_ctx.pool t.ctx)
      (fun i m ->
        let illustration =
          Evolution.evolve t.ctx ~old_mapping:old.mapping
            ~old_illustration:old.illustration m
        in
        { id = t.next_id + i; mapping = m; illustration; label = label i })
      mappings
  in
  {
    t with
    entries;
    active_id = t.next_id;
    next_id = t.next_id + List.length mappings;
  }

let rotate t =
  let ids = List.map (fun e -> e.id) t.entries in
  let rec next = function
    | [] -> List.hd ids
    | [ _ ] -> List.hd ids
    | x :: y :: rest -> if x = t.active_id then y else next (y :: rest)
  in
  { t with active_id = next ids }

let select t id =
  if List.exists (fun e -> e.id = id) t.entries then { t with active_id = id }
  else raise Not_found

let delete t id =
  let remaining = List.filter (fun e -> e.id <> id) t.entries in
  if remaining = [] then invalid_arg "Workspace.delete: cannot delete the last workspace";
  let active_id =
    if t.active_id = id then (List.hd remaining).id else t.active_id
  in
  { t with entries = remaining; active_id }

let confirm t = { t with entries = [ active t ] }

(* A source-tuple edit: insert example tuples into one base relation and
   refresh every workspace's illustration against the new instance.  The
   context keeps its cache across [with_db], so with incremental
   maintenance on, the re-evaluations promote or repair the session's
   cached D(G) entries instead of recomputing them — this is the hot
   path the B15 bench replays. *)
let add_tuples t name tuples =
  let db = Database.insert_tuples (Eval_ctx.db t.ctx) name tuples in
  if Database.version db = Eval_ctx.version t.ctx then t
  else begin
    let ctx = Eval_ctx.with_db t.ctx db in
    let entries =
      Par.map
        ?pool:(Eval_ctx.pool ctx)
        (fun e ->
          let illustration =
            Evolution.evolve ctx ~old_mapping:e.mapping
              ~old_illustration:e.illustration e.mapping
          in
          { e with illustration })
        t.entries
    in
    { t with ctx; entries }
  end

let render ?short t =
  let b = Buffer.create 1024 in
  let act = active t in
  Buffer.add_string b "Workspaces:\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%s [%d] %s — %s\n"
           (if e.id = act.id then "*" else " ")
           e.id e.label
           (Querygraph.Qgraph.to_string e.mapping.Mapping.graph)))
    t.entries;
  Buffer.add_string b "\nActive illustration:\n";
  let fd = Mapping_eval.data_associations t.ctx act.mapping in
  Buffer.add_string b
    (Illustration.render ?short ~scheme:fd.Fulldisj.Full_disjunction.scheme
       act.illustration);
  Buffer.add_string b "\n\nTarget view (WYSIWYG):\n";
  Buffer.add_string b (Render.relation (target_view t));
  Buffer.contents b

let compare_entries t ~rel id1 id2 =
  let entry id = List.find (fun e -> e.id = id) t.entries in
  let e1 = entry id1 and e2 = entry id2 in
  Differentiate.distinguishing t.ctx ~rel e1.mapping e2.mapping

let update_active t ?label m =
  let old = active t in
  let illustration =
    Evolution.evolve t.ctx ~old_mapping:old.mapping ~old_illustration:old.illustration m
  in
  let entry =
    { old with mapping = m; illustration; label = Option.value label ~default:old.label }
  in
  {
    t with
    entries = List.map (fun e -> if e.id = old.id then entry else e) t.entries;
  }
