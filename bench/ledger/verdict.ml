type better = Lower | Higher | Exact | Zero
type t = Within | Worse | Gain | Unresolved | Mismatch

let name = function
  | Within -> "within"
  | Worse -> "WORSE"
  | Gain -> "gain"
  | Unresolved -> "unresolved"
  | Mismatch -> "MISMATCH"

let spread a =
  let q1, med, q3 = Stats.quartiles a in
  if med = 0.0 then (if q3 -. q1 = 0.0 then 0.0 else infinity)
  else (q3 -. q1) /. Float.abs med

(* [improves x y]: x is strictly better than y in this metric's direction. *)
let improves better x y =
  match better with Lower -> x < y | Higher -> x > y | Exact | Zero -> false

let judge ~better ~bound ~base ~next =
  let all_equal v a = Array.for_all (fun x -> Float.equal x v) a in
  match better with
  | Exact | Zero ->
    if Array.length base = 0 || Array.length next = 0 then Unresolved
    else begin
      let v = if better = Zero then 0.0 else base.(0) in
      if all_equal v base && all_equal v next then Within else Mismatch
    end
  | Lower | Higher ->
    if Array.length base = 0 || Array.length next = 0 then Unresolved
    else begin
      let q1, mb, q3 = Stats.quartiles base in
      let mn = Stats.median next in
      let iqr = q3 -. q1 in
      let pairs = min (Array.length base) (Array.length next) in
      let wins = ref 0 in
      for i = 0 to pairs - 1 do
        if improves better next.(i) base.(i) then incr wins
      done;
      let clear_margin = improves better mn mb && Float.abs (mn -. mb) > iqr in
      let gain = clear_margin && !wins * 10 >= pairs * 9 in
      let worse =
        let d = if better = Lower then mn -. mb else mb -. mn in
        d > bound *. Float.abs mb
      in
      if spread base > bound then begin
        let every =
          Array.for_all
            (fun x -> Array.for_all (fun y -> improves better x y) base)
            next
        in
        if gain && every then Gain else Unresolved
      end
      else if worse then Worse
      else if gain then Gain
      else Within
    end
