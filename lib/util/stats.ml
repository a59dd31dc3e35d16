type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ ->
    let n = List.length xs in
    List.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let n = List.length xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))

let percentile p xs =
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p out of range";
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty"
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n = 1 then a.(0)
    else begin
      let rank = p *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
    end

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ ->
    {
      n = List.length xs;
      mean = mean xs;
      stddev = stddev xs;
      min = List.fold_left Float.min infinity xs;
      max = List.fold_left Float.max neg_infinity xs;
      p50 = percentile 0.5 xs;
      p90 = percentile 0.9 xs;
      p99 = percentile 0.99 xs;
    }

(* Walk the upper tail of Binomial(n, 1/2) down from k = n, one term at a
   time in log space: 2^-n underflows at large n, and the terms lost to
   it are far below any usable alpha. *)
let wins_needed n =
  if n < 0 then invalid_arg "Stats.wins_needed: negative n";
  let alpha = 0.025 in
  let rec down k log_pmf tail =
    let tail = tail +. exp log_pmf in
    if tail > alpha then if k = n then None else Some (k + 1)
    else
      down (k - 1)
        (log_pmf +. log (float_of_int k /. float_of_int (n - k + 1)))
        tail
  in
  down n (-.float_of_int n *. log 2.0) 0.0

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  match xs with
  | [] -> [||]
  | _ ->
    let lo = List.fold_left Float.min infinity xs in
    let hi = List.fold_left Float.max neg_infinity xs in
    let span = if hi -. lo <= 0.0 then 1.0 else hi -. lo in
    let counts = Array.make bins 0 in
    let bucket x =
      let b = int_of_float (float_of_int bins *. (x -. lo) /. span) in
      if b >= bins then bins - 1 else if b < 0 then 0 else b
    in
    List.iter (fun x -> counts.(bucket x) <- counts.(bucket x) + 1) xs;
    Array.init bins (fun i ->
        let w = span /. float_of_int bins in
        (lo +. (w *. float_of_int i), lo +. (w *. float_of_int (i + 1)), counts.(i)))

let pp_summary fmt s =
  Format.fprintf fmt
    "n=%d mean=%.4f sd=%.4f min=%.4f p50=%.4f p90=%.4f p99=%.4f max=%.4f"
    s.n s.mean s.stddev s.min s.p50 s.p90 s.p99 s.max
