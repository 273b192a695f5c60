open Relational
module Qgraph = Querygraph.Qgraph
module Eval_ctx = Engine.Eval_ctx

type outcome = { log : string list; mapping : Mapping.t option }

exception Script_error of { line : int; message : string }

(* Alternatives live in an array: [pick N] and the numbered listing are
   direct index accesses, not repeated [List.nth] walks. *)
type pending = { alternatives : (Mapping.t * string) array; what : string }

type state = {
  ctx : Eval_ctx.t;  (** one caching context for the whole session *)
  target : (string * string list) option;
  mapping : Mapping.t option;
  draft : Querygraph.Qgraph.t option;
      (** graph under construction via node/edge commands; folded into the
          mapping (with connectivity validation) at the next use *)
  history : Mapping.t list;  (** previous mappings, most recent first *)
  pending : pending option;
  log : string list;
}

let fail line fmt = Printf.ksprintf (fun message -> raise (Script_error { line; message })) fmt

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

(* "NAME(a, b, c)" *)
let parse_target_decl ln s =
  match String.index_opt s '(' with
  | None -> fail ln "target: expected NAME(col, ...)"
  | Some i ->
      let name = String.trim (String.sub s 0 i) in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let rest =
        match String.rindex_opt rest ')' with
        | Some j -> String.sub rest 0 j
        | None -> fail ln "target: missing closing parenthesis"
      in
      let cols = String.split_on_char ',' rest |> List.map String.trim in
      if name = "" || List.exists (fun c -> c = "") cols then
        fail ln "target: empty name or column";
      (name, cols)

(* Fold a node/edge draft into the mapping, validating connectivity. *)
let materialize ln st =
  match st.draft with
  | None -> st
  | Some g -> (
      match st.mapping with
      | Some m -> (
          match Mapping.with_graph m g with
          | m' -> { st with mapping = Some m'; draft = None }
          | exception Invalid_argument e -> fail ln "graph edits: %s" e)
      | None -> (
          match st.target with
          | None -> fail ln "declare the target before node/edge"
          | Some (target, target_cols) -> (
              match Mapping.make ~graph:g ~target ~target_cols () with
              | m -> { st with mapping = Some m; draft = None }
              | exception Invalid_argument e -> fail ln "graph edits: %s" e)))

(* Returns the (possibly materialized) state along with its mapping. *)
let need_mapping ln st =
  let st = materialize ln st in
  match st.mapping with
  | Some m -> (st, m)
  | None -> fail ln "no mapping yet (use target + source first)"

let no_pending ln st =
  match st.pending with
  | None -> ()
  | Some p -> fail ln "alternatives pending from %s: pick one first" p.what

let set_mapping st m =
  let history = match st.mapping with Some old -> old :: st.history | None -> st.history in
  { st with mapping = Some m; history; pending = None; draft = None }

(* Even a single alternative stays pending: scripts always [pick], so the
   reader sees every decision point. *)
let settle ln st what = function
  | [] -> fail ln "%s produced no alternatives" what
  | alternatives ->
      { st with pending = Some { alternatives = Array.of_list alternatives; what } }

let show st text = { st with log = st.log @ [ text ] }

let exec_show ln st args =
  let st, m = need_mapping ln st in
  match args with
  | [ "target" ] -> show st (Render.relation (Mapping_eval.target_view st.ctx m))
  | [ "illustration" ] ->
      let fd = Mapping_eval.data_associations st.ctx m in
      let universe = Mapping_eval.examples st.ctx m in
      let ill =
        Sufficiency.select ~universe ~target_cols:m.Mapping.target_cols ()
      in
      show st
        (Illustration.render ~scheme:fd.Fulldisj.Full_disjunction.scheme ill)
  | [ "mapping" ] -> show st (Format.asprintf "%a" Mapping.pp m)
  | [ "alternatives" ] -> (
      match st.pending with
      | None -> show st "(no pending alternatives)"
      | Some p ->
          show st
            (String.concat "\n"
               (Array.to_list
                  (Array.mapi
                     (fun i (_, d) -> Printf.sprintf "%d. %s" (i + 1) d)
                     p.alternatives))))
  | [ "sql"; root ] -> show st (Mapping_sql.outer_join ~root m)
  | [ "plan" ] ->
      let lookup = Eval_ctx.lookup st.ctx in
      let plan = Fulldisj.Plan.analyze ~lookup m.Mapping.graph in
      let required = Mapping_analysis.required_aliases m in
      let surviving = Mapping_analysis.possibly_positive_categories m in
      show st
        (String.concat "\n"
           [
             Fulldisj.Plan.render plan;
             Printf.sprintf "  required by target filters: %s"
               (if required = [] then "(none)" else String.concat ", " required);
             Printf.sprintf "  possibly-positive categories: %d of %d"
               (List.length surviving) plan.Fulldisj.Plan.categories;
           ])
  | _ ->
      fail ln
        "show: expected target | illustration | mapping | alternatives | plan | sql ROOT"

let exec_line st ln raw =
  let line = String.trim (strip_comment raw) in
  if line = "" then st
  else
    match split_words line with
    | "target" :: rest ->
        let name, cols = parse_target_decl ln (String.concat " " rest) in
        { st with target = Some (name, cols) }
    | [ "source"; rel ] -> (
        if not (Database.mem (Eval_ctx.db st.ctx) rel) then fail ln "unknown relation %s" rel;
        match st.target with
        | None -> fail ln "declare the target before source"
        | Some (target, target_cols) ->
            set_mapping st
              (Mapping.make
                 ~graph:(Qgraph.singleton ~alias:rel ~base:rel)
                 ~target ~target_cols ()))
    (* Power-user graph surgery (also the persistence format emitted by
       Mapping_io): node/edge commands accumulate a draft graph, which is
       validated (connectivity) at the next mapping-using command. *)
    | [ "node"; alias; base ] -> (
        no_pending ln st;
        if not (Database.mem (Eval_ctx.db st.ctx) base) then fail ln "unknown relation %s" base;
        let g =
          match (st.draft, st.mapping) with
          | Some g, _ -> g
          | None, Some m -> m.Mapping.graph
          | None, None -> Qgraph.empty
        in
        match Qgraph.add_node g ~alias ~base with
        | g -> { st with draft = Some g }
        | exception Invalid_argument e -> fail ln "node: %s" e)
    | "edge" :: a :: b :: rest -> (
        no_pending ln st;
        let g =
          match (st.draft, st.mapping) with
          | Some g, _ -> g
          | None, Some m -> m.Mapping.graph
          | None, None -> fail ln "edge: no nodes yet"
        in
        match Parse.predicate_opt (String.concat " " rest) with
        | None -> fail ln "edge: cannot parse join predicate"
        | Some pred -> (
            match Qgraph.add_edge g a b pred with
            | g -> { st with draft = Some g }
            | exception Invalid_argument e -> fail ln "edge: %s" e))
    | "corr" :: rest -> (
        no_pending ln st;
        let st, m = need_mapping ln st in
        let text = String.concat " " rest in
        match String.index_opt text '=' with
        | None -> fail ln "corr: expected COL = EXPR"
        | Some i ->
            let col = String.trim (String.sub text 0 i) in
            let expr_text = String.sub text (i + 1) (String.length text - i - 1) in
            let expr =
              try Parse.expr expr_text
              with Parse.Parse_error e -> fail ln "corr: %s" e
            in
            let corr = Correspondence.of_expr col expr in
            (match Op_correspondence.add ~kb:(Eval_ctx.kb st.ctx) m corr with
            | Op_correspondence.Updated m' -> set_mapping st m'
            | Op_correspondence.Alternatives alts ->
                settle ln st "corr"
                  (List.map
                     (fun (a : Op_correspondence.alternative) ->
                       (a.Op_correspondence.mapping, a.Op_correspondence.description))
                     alts)
            | Op_correspondence.New_mapping _ ->
                fail ln
                  "corr: %s is already mapped differently (a new mapping is needed; \
                   scripts handle one mapping at a time)"
                  col))
    | "walk" :: start :: goal :: rest -> (
        no_pending ln st;
        let st, m = need_mapping ln st in
        let max_len =
          match rest with
          | [] -> 2
          | [ n ] -> (
              match int_of_string_opt n with
              | Some v when v > 0 -> v
              | _ -> fail ln "walk: bad max length %s" n)
          | _ -> fail ln "walk: expected START GOAL [N]"
        in
        match Op_walk.data_walk st.ctx m ~start ~goal ~max_len () with
        | exception Invalid_argument e -> fail ln "walk: %s" e
        | alts ->
            settle ln st "walk"
              (List.map
                 (fun (a : Op_walk.alternative) ->
                   (a.Op_walk.mapping, a.Op_walk.description))
                 alts))
    | [ "chase"; attr_text; value_text ] -> (
        no_pending ln st;
        let st, m = need_mapping ln st in
        let attr =
          try Attr.of_string attr_text
          with Invalid_argument e -> fail ln "chase: %s" e
        in
        let value = Database.value_of_text (Eval_ctx.db st.ctx) value_text in
        match Op_chase.chase st.ctx m ~attr ~value with
        | exception Invalid_argument e -> fail ln "chase: %s" e
        | alts ->
            settle ln st "chase"
              (List.map
                 (fun (a : Op_chase.alternative) ->
                   (a.Op_chase.mapping, a.Op_chase.description))
                 alts))
    | [ "pick"; n ] -> (
        match st.pending with
        | None -> fail ln "pick: nothing pending"
        | Some p -> (
            match int_of_string_opt n with
            | Some i when i >= 1 && i <= Array.length p.alternatives ->
                set_mapping st (fst p.alternatives.(i - 1))
            | _ ->
                fail ln "pick: expected 1..%d" (Array.length p.alternatives)))
    | "sfilter" :: rest -> (
        no_pending ln st;
        let st, m = need_mapping ln st in
        match Parse.predicate_opt (String.concat " " rest) with
        | Some p -> set_mapping st (Mapping.add_source_filter m p)
        | None -> fail ln "sfilter: cannot parse predicate")
    | "tfilter" :: rest -> (
        no_pending ln st;
        let st, m = need_mapping ln st in
        match Parse.predicate_opt ~rel:m.Mapping.target (String.concat " " rest) with
        | Some p -> set_mapping st (Mapping.add_target_filter m p)
        | None -> fail ln "tfilter: cannot parse predicate")
    | [ "require"; col ] ->
        no_pending ln st;
        let st, m = need_mapping ln st in
        if not (List.mem col m.Mapping.target_cols) then
          fail ln "require: unknown target column %s" col;
        set_mapping st (Op_trim.require_target_column st.ctx m col).Op_trim.mapping
    | [ "undo" ] -> (
        match st.history with
        | [] -> fail ln "undo: nothing to undo"
        | prev :: rest -> { st with mapping = Some prev; history = rest; pending = None })
    | "show" :: args -> exec_show ln st args
    | cmd :: _ -> fail ln "unknown command %s" cmd
    | [] -> st

let run_ctx ctx text =
  let lines = String.split_on_char '\n' text in
  let st =
    List.fold_left
      (fun (st, ln) raw -> (exec_line st ln raw, ln + 1))
      ( { ctx; target = None; mapping = None; draft = None; history = []; pending = None; log = [] },
        1 )
      lines
    |> fst
  in
  let st = materialize 0 st in
  { log = st.log; mapping = st.mapping }

let run ~db ~kb text = run_ctx (Eval_ctx.create ~kb db) text

let run_result_ctx ctx text =
  try Ok (run_ctx ctx text) with
  | Script_error { line; message } -> Error (Printf.sprintf "line %d: %s" line message)
  | Parse.Parse_error e -> Error e

let run_result ~db ~kb text =
  try Ok (run ~db ~kb text) with
  | Script_error { line; message } -> Error (Printf.sprintf "line %d: %s" line message)
  | Parse.Parse_error e -> Error e

module Interactive = struct
  type nonrec t = state

  let start_ctx ctx =
    { ctx; target = None; mapping = None; draft = None; history = []; pending = None; log = [] }

  let start ~db ~kb = start_ctx (Eval_ctx.create ~kb db)

  let feed st line =
    (* Reuse the batch executor with a cleared log so the new output is
       exactly what this command printed. *)
    match exec_line { st with log = [] } 1 line with
    | st' -> Ok ({ st' with log = [] }, st'.log)
    | exception Script_error { message; _ } -> Error message
    | exception Parse.Parse_error e -> Error e

  let mapping st = st.mapping
end
