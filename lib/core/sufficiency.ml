open Relational
open Fulldisj

type requirement =
  | Cover of Coverage.t
  | Polarity of Coverage.t * bool
  | Attr_null of Coverage.t * string * bool

let pp_requirement ppf = function
  | Cover c -> Format.fprintf ppf "coverage %a" Coverage.pp c
  | Polarity (c, pos) ->
      Format.fprintf ppf "%s example at %a" (if pos then "positive" else "negative")
        Coverage.pp c
  | Attr_null (c, b, null) ->
      Format.fprintf ppf "positive example at %a with %s %s" Coverage.pp c b
        (if null then "null" else "non-null")

let target_position target_cols b =
  let rec go i = function
    | [] -> raise Not_found
    | c :: rest -> if String.equal c b then i else go (i + 1) rest
  in
  go 0 target_cols

let satisfies ~target_cols e = function
  | Cover c -> Coverage.equal (Example.coverage e) c
  | Polarity (c, pos) ->
      Coverage.equal (Example.coverage e) c && Bool.equal e.Example.positive pos
  | Attr_null (c, b, null) ->
      Coverage.equal (Example.coverage e) c
      && e.Example.positive
      && Bool.equal (Value.is_null e.Example.target_tuple.(target_position target_cols b)) null

(* What the universe offers at one coverage: a positive and a negative
   example; per target attribute, a positive example with it non-null
   ([attr.(2k)]) and with it null ([attr.(2k+1)]). *)
type offer = {
  coverage : Coverage.t;
  mutable positive : bool;
  mutable negative : bool;
  attr : bool array;
}

(* Every requirement in one pass over the universe: each example's
   coverage is keyed once, and its offers are recorded under it.  The
   order is Def 4.2's, then 4.4's, then 4.5's, each by coverage in order
   of first appearance. *)
let requirements ~universe ~target_cols =
  let cols = Array.of_list target_cols in
  let at = Array.map (target_position target_cols) cols in
  let ncols = Array.length cols in
  let offers = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun e ->
      let key = Coverage.to_list (Example.coverage e) in
      let o =
        match Hashtbl.find_opt offers key with
        | Some o -> o
        | None ->
            let o =
              {
                coverage = Example.coverage e;
                positive = false;
                negative = false;
                attr = Array.make (2 * ncols) false;
              }
            in
            Hashtbl.add offers key o;
            order := o :: !order;
            o
      in
      if e.Example.positive then begin
        o.positive <- true;
        for k = 0 to ncols - 1 do
          let null = Value.is_null e.Example.target_tuple.(at.(k)) in
          o.attr.((2 * k) + Bool.to_int null) <- true
        done
      end
      else o.negative <- true)
    universe;
  let offers = List.rev !order in
  let when_ b r = if b then [ r ] else [] in
  List.map (fun o -> Cover o.coverage) offers
  @ List.concat_map
      (fun o ->
        when_ o.positive (Polarity (o.coverage, true))
        @ when_ o.negative (Polarity (o.coverage, false)))
      offers
  @ List.concat_map
      (fun o ->
        List.concat
          (List.init ncols (fun k ->
               when_ o.attr.(2 * k) (Attr_null (o.coverage, cols.(k), false))
               @ when_ o.attr.((2 * k) + 1) (Attr_null (o.coverage, cols.(k), true)))))
      offers

let graph_requirements ~universe =
  List.filter
    (function Cover _ -> true | Polarity _ | Attr_null _ -> false)
    (requirements ~universe ~target_cols:[])

let filter_requirements ~universe =
  List.filter
    (function Polarity _ -> true | Cover _ | Attr_null _ -> false)
    (requirements ~universe ~target_cols:[])

let correspondence_requirements ~universe ~target_cols =
  List.filter
    (function Attr_null _ -> true | Cover _ | Polarity _ -> false)
    (requirements ~universe ~target_cols)

let missing ~universe ~target_cols illustration =
  requirements ~universe ~target_cols
  |> List.filter (fun req ->
         not (List.exists (fun e -> satisfies ~target_cols e req) illustration))

let check reqs ~target_cols illustration =
  List.for_all
    (fun req -> List.exists (fun e -> satisfies ~target_cols e req) illustration)
    reqs

let is_sufficient_graph ~universe ~target_cols illustration =
  check (graph_requirements ~universe) ~target_cols illustration

let is_sufficient_filters ~universe ~target_cols illustration =
  check (filter_requirements ~universe) ~target_cols illustration

let is_sufficient_correspondences ~universe ~target_cols illustration =
  check (correspondence_requirements ~universe ~target_cols) ~target_cols illustration

let is_sufficient ~universe ~target_cols illustration =
  check (requirements ~universe ~target_cols) ~target_cols illustration

let select_greedy ?pool ~seed ~universe ~target_cols () =
  Obs.with_span Obs.Names.sp_illustration_select @@ fun () ->
  let reqs = requirements ~universe ~target_cols in
  let unmet =
    List.filter
      (fun req -> not (List.exists (fun e -> satisfies ~target_cols e req) seed))
      reqs
  in
  (* Greedy set cover: repeatedly take the example satisfying the most
     still-unmet requirements. *)
  let rec cover chosen unmet =
    if unmet = [] then List.rev chosen
    else begin
      if Obs.enabled () then
        (* Each greedy round scores every example in the universe. *)
        Obs.add Obs.Names.illustration_candidates (List.length universe);
      let gain e = List.length (List.filter (satisfies ~target_cols e) unmet) in
      (* Candidate scoring fans out; the argmax stays a sequential fold over
         the scored list, so ties break on the same (first) example as the
         sequential path. *)
      let scored = Par.map ?pool (fun e -> (e, gain e)) universe in
      let best =
        List.fold_left
          (fun acc (e, g) ->
            match acc with
            | Some (_, bg) when bg >= g -> acc
            | _ when g = 0 -> acc
            | _ -> Some (e, g))
          None scored
      in
      match best with
      | None ->
          (* Unsatisfiable requirements cannot arise: they were derived from
             the universe itself. *)
          assert false
      | Some (e, _) ->
          cover (e :: chosen)
            (List.filter (fun req -> not (satisfies ~target_cols e req)) unmet)
    end
  in
  let chosen = seed @ cover [] unmet in
  if Obs.enabled () then
    Obs.add Obs.Names.illustration_selected (List.length chosen);
  chosen

let select ?pool ?(seed = []) ~universe ~target_cols () =
  select_greedy ?pool ~seed ~universe ~target_cols ()

(* Branch and bound over examples ordered by decreasing requirement gain.
   At each node: if every requirement is met, record; else pick the first
   unmet requirement and branch on each example satisfying it. *)
let select_exact ?(max_universe = 64) ~universe ~target_cols () =
  let greedy = select_greedy ~seed:[] ~universe ~target_cols () in
  if List.length universe > max_universe then greedy
  else begin
    let reqs = Array.of_list (requirements ~universe ~target_cols) in
    let n_reqs = Array.length reqs in
    let best = ref (Array.of_list greedy) in
    let rec branch chosen met =
      if List.length chosen >= Array.length !best then ()
      else
        match
          (* first unmet requirement *)
          let rec find i = if i >= n_reqs then None else if met.(i) then find (i + 1) else Some i in
          find 0
        with
        | None -> best := Array.of_list (List.rev chosen)
        | Some i ->
            List.iter
              (fun e ->
                if satisfies ~target_cols e reqs.(i) then begin
                  let newly =
                    Array.init n_reqs (fun j ->
                        met.(j) || satisfies ~target_cols e reqs.(j))
                  in
                  branch (e :: chosen) newly
                end)
              universe
    in
    branch [] (Array.make n_reqs false);
    Array.to_list !best
  end
