let min_beyond = 10

(* Percentiles in tenths of a percent keep the rank arithmetic exact:
   0.99 *. 1000. is not guaranteed to be 990. *)
let permille q = int_of_float (Float.round (q *. 1000.0))

let rank n q =
  let r = (((permille q * n) + 999) / 1000) - 1 in
  max 0 (min (n - 1) r)

let beyond n q = if n <= 0 then 0 else n - 1 - rank n q

let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

let choose ?(at_most = 0.999) n =
  List.find_opt
    (fun q -> permille q <= permille at_most && beyond n q >= min_beyond)
    ladder

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let quantile s q = s.(rank (Array.length s) q)

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let block_median ~blocks n f =
  let k = max 1 (min blocks n) in
  median (Array.init k (fun b -> f (b * n / k) ((b + 1) * n / k)))

let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (s.(0), s.(0), s.(0))
  else begin
    (* statistics.quantiles(method='exclusive'): m = n + 1, cut i at
       position i*m/4 (1-based), clamped to [1, n-1], interpolated. *)
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 2, cut 3)
  end
