open Relational

type fk_spec = { target : string; null_prob : float; orphan_prob : float }

let sample_ids st ~rows ~key_space =
  if rows <= key_space then begin
    (* Fisher–Yates prefix over the key space. *)
    let arr = Array.init key_space Fun.id in
    for i = 0 to min (rows - 1) (key_space - 1) do
      let j = i + Random.State.int st (key_space - i) in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    done;
    Array.to_list (Array.sub arr 0 rows)
  end
  else List.init rows (fun i -> i mod key_space)

(* Rows are drawn in order and each cell goes straight into an id
   column: every value is interned once, on its first draw, through a
   per-domain table (ints below [2 * key_space], each payload column's
   1000 strings), so no boxed tuple is built. *)
let relation st ~name ~rows ~payload_cols ~fks ~key_space =
  let cols =
    "id"
    :: (List.init payload_cols (fun i -> Printf.sprintf "p%d" i)
       @ List.map (fun f -> "fk_" ^ f.target) fks)
  in
  let schema = Schema.make name cols in
  let ids = sample_ids st ~rows ~key_space in
  let memo n = Array.make n (-1) in
  let interned table k v =
    if table.(k) < 0 then table.(k) <- Value_pool.intern (v ());
    table.(k)
  in
  let ints = memo (2 * key_space) in
  let int_id k = interned ints k (fun () -> Value.Int k) in
  let payloads = Array.init payload_cols (fun _ -> memo 1000) in
  let out = Array.init (List.length cols) (fun _ -> Array.make rows 0) in
  List.iteri
    (fun row id ->
      out.(0).(row) <- int_id id;
      for i = 0 to payload_cols - 1 do
        let k = Random.State.int st 1000 in
        out.(1 + i).(row) <-
          interned payloads.(i) k (fun () ->
              Value.String (Printf.sprintf "%s-%d-%d" name i k))
      done;
      List.iteri
        (fun j f ->
          let r = Random.State.float st 1.0 in
          out.(1 + payload_cols + j).(row) <-
            (if r < f.null_prob then Value_pool.null_id
             else if r < f.null_prob +. f.orphan_prob then
               int_id (key_space + Random.State.int st key_space)
             else int_id (Random.State.int st key_space)))
        fks)
    ids;
  Relation.of_columns name schema out

let sparse_tuples st ~rows ~arity ~null_prob ~domain =
  List.init rows (fun _ ->
      Array.init arity (fun _ ->
          if Random.State.float st 1.0 < null_prob then Value.Null
          else Value.Int (Random.State.int st domain)))

let skewed_tuples st ~rows ~arity ~null_prob ~domain ?(zipf_s = 1.0) () =
  (* Inverse-CDF sampling over the (finite) Zipf distribution. *)
  let weights =
    Array.init domain (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) zipf_s)
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make domain 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  let sample () =
    let u = Random.State.float st 1.0 in
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then bisect (mid + 1) hi else bisect lo mid
    in
    bisect 0 (domain - 1)
  in
  List.init rows (fun _ ->
      Array.init arity (fun _ ->
          if Random.State.float st 1.0 < null_prob then Value.Null
          else Value.Int (sample ())))

(* --- column-native generation (million-tuple scale) ---------------------

   The columnar builders fill [Value_pool] id columns directly — no boxed
   tuple is ever allocated on the generation path, so a million-row
   relation costs array fills plus RNG draws.  Integer domains are
   pre-interned once and indexed thereafter. *)

let interned_int_domain n =
  Array.init n (fun k -> Value_pool.intern (Value.Int k))

let columnar_chain_relation st ~name ~rows ?payload_domain ~fk () =
  if rows <= 0 then invalid_arg "Gen_db.columnar_chain_relation: rows must be > 0";
  let ids = interned_int_domain rows in
  let id_col = Array.init rows (fun i -> ids.(i)) in
  let payload =
    match payload_domain with
    | None -> []
    | Some d ->
        if d <= 0 then
          invalid_arg "Gen_db.columnar_chain_relation: payload_domain must be > 0";
        let pool =
          Array.init d (fun k ->
              Value_pool.intern (Value.String (Printf.sprintf "%s-%06d" name k)))
        in
        [ ("pay", Array.init rows (fun _ -> pool.(Random.State.int st d))) ]
  in
  let cols =
    match fk with
    | None -> ("id", id_col) :: payload
    | Some (target, target_rows, null_prob) ->
        let tids = interned_int_domain target_rows in
        let fk_col =
          Array.init rows (fun _ ->
              if Random.State.float st 1.0 < null_prob then 0
              else tids.(Random.State.int st target_rows))
        in
        ("id", id_col) :: ("fk_" ^ target, fk_col) :: payload
  in
  Relation.of_columns ~dedup:false name
    (Schema.make name (List.map fst cols))
    (Array.of_list (List.map snd cols))

let columnar_chain_db st ~names ~rows ?payload_domain ~null_prob () =
  if names = [] then invalid_arg "Gen_db.columnar_chain_db: no relations";
  let rec build = function
    | [] -> []
    | [ last ] ->
        [ columnar_chain_relation st ~name:last ~rows ?payload_domain ~fk:None () ]
    | name :: (next :: _ as rest) ->
        columnar_chain_relation st ~name ~rows ?payload_domain
          ~fk:(Some (next, rows, null_prob))
          ()
        :: build rest
  in
  Database.of_relations (build names)

let sparse_columns st ~rows ~arity ~null_prob ~domain =
  let ids = interned_int_domain domain in
  Array.init arity (fun _ ->
      Array.init rows (fun _ ->
          if Random.State.float st 1.0 < null_prob then 0
          else ids.(Random.State.int st domain)))
