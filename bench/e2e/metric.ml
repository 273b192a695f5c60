(* The end-to-end metrics every workload reports, and the order
   statistics the benchmark computes them with. *)

type better = Lower | Higher | Exact

type def = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;
      (** share of the baseline median a change may lose before it counts
          as a regression (ignored for [Exact]) *)
  floor : float;  (** absolute slack added to the bound, in [unit_] *)
}

let def ?(floor = 0.) name unit_ better bound = { name; unit_; better; bound; floor }

(* Regression bounds.  Each starts from the bound the metric was
   designed with and is widened to the largest interquartile spread five
   runs (seed 1, 30 s windows) measured on a 2-core host, capped at 0.25;
   a workload whose spread exceeded the cap drops the metric (see
   [Report.dropped]), except [setup_s], which every workload must report
   so that work moved into set-up shows.  This is the one bound table:
   BENCHMARK.json repeats the bounds of the metrics it lists. *)
let defs =
  [
    def "setup_s" "s" Lower 0.25;
    def "throughput_rps" "req/s" Higher 0.25;
    def "error_ratio" "ratio" Exact 0.;
    def "evaluate_p50_ms" "ms" Lower 0.25;
    def "evaluate_p90_ms" "ms" Lower 0.25;
    def "evaluate_p95_ms" "ms" Lower 0.25;
    def "offer_p50_ms" "ms" Lower 0.20;
    def "offer_p95_ms" "ms" Lower 0.18;
    def "insert_p50_ms" "ms" Lower 0.18;
    def "insert_p95_ms" "ms" Lower 0.19;
    def "merge_p50_ms" "ms" Lower 0.19;
    def "open_p50_ms" "ms" Lower 0.18;
    def "control_p50_ms" "ms" Lower 0.23;
    def "rss_peak_mb" "MB" Lower 0.15;
    def ~floor:0.010 "drain_s" "s" Lower 0.25;
    def "acked_lost_ratio" "ratio" Exact 0.;
  ]

(* Nearest-rank percentile, [q] in percent; [None] on no samples. *)
let percentile xs q =
  match List.sort Float.compare xs with
  | [] -> None
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
      Some a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  match List.sort Float.compare xs with
  | [] -> None
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      Some
        (if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.)

(* First and third quartile by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so spreads read the same here as in
   any tool built on it. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  match Array.length a with
  | 0 -> None
  | 1 -> Some (a.(0), a.(0))
  | ld ->
      let q i =
        let m = ld + 1 in
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
      in
      Some (q 1, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  match (quartiles xs, median xs) with
  | Some (q1, q3), Some m when m <> 0. -> Some ((q3 -. q1) /. Float.abs m)
  | Some (q1, q3), Some _ -> Some (if q3 = q1 then 0. else infinity)
  | _ -> None
