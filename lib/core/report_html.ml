open Relational
open Fulldisj
module Qgraph = Querygraph.Qgraph

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let style =
  {|body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0; font-size: .85rem; }
th, td { border: 1px solid #ccc; padding: .25rem .5rem; text-align: left; }
th { background: #f0f0f0; }
td.null { color: #999; font-style: italic; }
.badge { display: inline-block; padding: 0 .4rem; border-radius: .6rem; font-size: .75rem; }
.pos { background: #d8f2d8; } .neg { background: #f6d8d8; }
pre { background: #f7f7f7; padding: .75rem; overflow-x: auto; font-size: .85rem; }
.meta { color: #555; font-size: .85rem; }|}

let cell v =
  if Value.is_null v then "<td class=\"null\">null</td>"
  else Printf.sprintf "<td>%s</td>" (escape (Value.to_string v))

let table ?badges ~headers rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "<table><tr>";
  (match badges with Some _ -> Buffer.add_string b "<th></th>" | None -> ());
  List.iter (fun h -> Buffer.add_string b (Printf.sprintf "<th>%s</th>" (escape h))) headers;
  Buffer.add_string b "</tr>";
  List.iteri
    (fun i row ->
      Buffer.add_string b "<tr>";
      (match badges with
      | Some bs -> (
          (* A badge list shorter than the rows must not abort rendering:
             rows past its end get an unbadged cell. *)
          match List.nth_opt bs i with
          | Some (tag, positive) ->
              Buffer.add_string b
                (Printf.sprintf "<td><span class=\"badge %s\">%s</span></td>"
                   (if positive then "pos" else "neg")
                   (escape tag))
          | None -> Buffer.add_string b "<td></td>")
      | None -> ());
      Array.iter (fun v -> Buffer.add_string b (cell v)) row;
      Buffer.add_string b "</tr>")
    rows;
  Buffer.add_string b "</table>";
  Buffer.contents b

let relation_table r =
  table
    ~headers:
      (Array.to_list (Schema.attrs (Relation.schema r))
      |> List.map (fun a -> a.Attr.name))
    (Relation.tuples r)

let page ?title ?short ?root ctx (m : Mapping.t) =
  let title = Option.value title ~default:("Mapping into " ^ m.Mapping.target) in
  let fd = Mapping_eval.data_associations ctx m in
  let universe = Mapping_eval.examples ctx m in
  let ill =
    Sufficiency.select ~universe ~target_cols:m.Mapping.target_cols ()
  in
  let scheme = fd.Full_disjunction.scheme in
  let b = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add
    "<!doctype html><html><head><meta charset=\"utf-8\"><title>%s</title><style>%s</style></head><body>"
    (escape title) style;
  add "<h1>%s</h1>" (escape title);
  add "<p class=\"meta\">query graph: %s</p>"
    (escape (Qgraph.to_string m.Mapping.graph));

  add "<h2>Correspondences and filters</h2><ul>";
  List.iter
    (fun c -> add "<li><code>%s</code></li>" (escape (Correspondence.to_sql c)))
    m.Mapping.correspondences;
  List.iter
    (fun p -> add "<li>source filter: <code>%s</code></li>" (escape (Predicate.to_sql p)))
    m.Mapping.source_filters;
  List.iter
    (fun p -> add "<li>target filter: <code>%s</code></li>" (escape (Predicate.to_sql p)))
    m.Mapping.target_filters;
  add "</ul>";

  add "<h2>Sufficient illustration (%d of %d data associations)</h2>"
    (List.length ill) (List.length universe);
  let headers =
    Array.to_list (Schema.attrs scheme) |> List.map Attr.to_string
  in
  let badges =
    List.map
      (fun e -> (Coverage.label ?short (Example.coverage e), e.Example.positive))
      ill
  in
  add "%s"
    (table ~badges ~headers (List.map (fun e -> e.Example.tuple) ill));

  add "<h2>Induced target tuples</h2>%s"
    (table ~badges ~headers:m.Mapping.target_cols
       (List.map (fun e -> e.Example.target_tuple) ill));

  add "<h2>Target view (WYSIWYG)</h2>%s"
    (relation_table (Mapping_eval.target_view ctx m));

  add "<h2>Generated SQL</h2><pre>%s</pre>"
    (escape
       (if Outerjoin_plan.is_tree m.Mapping.graph then
          let root =
            Option.value root ~default:(List.hd (Qgraph.aliases m.Mapping.graph))
          in
          Mapping_sql.outer_join ~root m
        else Mapping_sql.canonical m));
  add "</body></html>";
  Buffer.contents b
