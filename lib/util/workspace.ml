type t = {
  mutable cap : int;
  mutable dist_a : float array;
  mutable pred_a : int array;
  mutable stamp : int array;
  mutable gen : int;
  (* Per-node stamp of {!first_visit}, current when it equals [gen]. *)
  mutable visit : int array;
  (* Indexed binary min-heap over the states: [keys]/[prio] per heap slot,
     [pos] per state (its slot, or -1 once popped).  A state's [pos] is
     meaningful only while its stamp is current: a state first stamped by
     [relax] is inserted without reading it, so [reset] empties the heap
     in O(1) like the distances. *)
  mutable keys : int array;
  mutable prio : float array;
  mutable pos : int array;
  mutable size : int;
  mutable mark_cap : int;
  mutable mark_stamp : int array;
  mutable mark_gen : int;
  mutable pot : float array;
  mutable path_in : int array;
  (* Per state, the least |candidate - current distance| over the tracked
     relaxations that found it already set; current while its stamp is. *)
  mutable gap : float array;
}

let grow_size needed current = max needed (max 16 (2 * current))

let create ?(capacity = 0) ?(generation = 1) () =
  if generation < 1 then invalid_arg "Workspace.create: generation must be positive";
  let cap = max capacity 1 in
  {
    cap;
    dist_a = Array.make cap infinity;
    pred_a = Array.make cap (-1);
    stamp = Array.make cap 0;
    gen = generation;
    visit = Array.make cap 0;
    keys = Array.make cap (-1);
    prio = Array.make cap nan;
    pos = Array.make cap (-1);
    size = 0;
    mark_cap = 1;
    mark_stamp = Array.make 1 0;
    mark_gen = 1;
    pot = Array.make 1 infinity;
    path_in = Array.make 1 (-1);
    gap = Array.make 1 infinity;
  }

let reset t n =
  if n < 0 then invalid_arg "Workspace.reset: negative state count";
  if n > t.cap then begin
    (* Fresh zero stamps never match the (monotone, >= 1) generation. *)
    let cap = grow_size n t.cap in
    t.cap <- cap;
    t.dist_a <- Array.make cap infinity;
    t.pred_a <- Array.make cap (-1);
    t.stamp <- Array.make cap 0;
    t.visit <- Array.make cap 0;
    t.keys <- Array.make cap (-1);
    t.prio <- Array.make cap nan;
    t.pos <- Array.make cap (-1)
  end;
  if t.gen = max_int then begin
    (* Generation wrap: one full clear every 2^62 searches. *)
    Array.fill t.stamp 0 t.cap 0;
    Array.fill t.visit 0 t.cap 0;
    t.gen <- 0
  end;
  t.gen <- t.gen + 1;
  t.size <- 0

let dist t i = if t.stamp.(i) = t.gen then t.dist_a.(i) else infinity

(* lint: no-alloc *)
let pred t i = if t.stamp.(i) = t.gen then t.pred_a.(i) else -1

(* lint: no-alloc *)
let generation t = t.gen

(* The sifts move a hole instead of swapping, and make exactly the
   comparisons of the textbook swap-based sifts: the same strict [<]
   against the parent on the way up; on the way down, the left child
   against the moving entry, then the right child against the smaller
   of the two.  Heap layout, and with it the pop order among equal
   priorities, is therefore the swap-based heap's.

   No float crosses a call (the sifts read priorities from the arrays),
   so nothing is boxed.  The sifts take the arrays as arguments, saving a
   field reload after each store, and index them unchecked: every index
   is a heap slot below [size] or a state [relax_to] has already checked
   against the arrays [reset] sized. *)

(* lint: no-alloc *)
let[@inline] place keys (prio : float array) pos k (x : float) i =
  Array.unsafe_set keys i k;
  Array.unsafe_set prio i x;
  Array.unsafe_set pos k i

(* State [k], at priority [dist.(k)], enters the hole at slot [i]. *)
(* lint: no-alloc *)
let rec sift_up keys (prio : float array) pos (dist : float array) k i =
  let x = Array.unsafe_get dist k in
  if i = 0 then place keys prio pos k x 0
  else begin
    let parent = (i - 1) / 2 in
    let pp = Array.unsafe_get prio parent in
    if x < pp then begin
      place keys prio pos (Array.unsafe_get keys parent) pp i;
      sift_up keys prio pos dist k parent
    end
    else place keys prio pos k x i
  end

(* The entry in slot [src] (past the heap's end, so never overwritten)
   enters the hole at slot [i]. *)
(* lint: no-alloc *)
let rec sift_down keys (prio : float array) pos size src i =
  let l = (2 * i) + 1 in
  if l >= size then place keys prio pos (Array.unsafe_get keys src) (Array.unsafe_get prio src) i
  else begin
    let x = Array.unsafe_get prio src in
    let pl = Array.unsafe_get prio l in
    let r = l + 1 in
    let s =
      if pl < x then if r < size && Array.unsafe_get prio r < pl then r else l
      else if r < size && Array.unsafe_get prio r < x then r
      else -1
    in
    if s < 0 then place keys prio pos (Array.unsafe_get keys src) x i
    else begin
      place keys prio pos (Array.unsafe_get keys s) (Array.unsafe_get prio s) i;
      sift_down keys prio pos size src s
    end
  end

(* Inlined into each relax entry point, so the candidate distance stays
   an unboxed float from its addition to its comparison. *)
(* lint: no-alloc *)
let[@inline] relax_to t i d p =
  if t.stamp.(i) <> t.gen then begin
    if d < infinity then begin
      t.dist_a.(i) <- d;
      t.pred_a.(i) <- p;
      t.stamp.(i) <- t.gen;
      t.size <- t.size + 1;
      sift_up t.keys t.prio t.pos t.dist_a i (t.size - 1);
      true
    end
    else false
  end
  else if d < t.dist_a.(i) then begin
    t.dist_a.(i) <- d;
    t.pred_a.(i) <- p;
    if t.pos.(i) >= 0 then sift_up t.keys t.prio t.pos t.dist_a i t.pos.(i)
    else begin
      t.size <- t.size + 1;
      sift_up t.keys t.prio t.pos t.dist_a i (t.size - 1)
    end;
    true
  end
  else false

(* lint: no-alloc *)
let relax t i d p = relax_to t i d p

(* lint: no-alloc *)
let relax_copy t i src p = relax_to t i t.dist_a.(src) p

(* lint: no-alloc *)
let relax_add t i src (x : float array) j p = relax_to t i (t.dist_a.(src) +. x.(j)) p

(* lint: no-alloc *)
let rec relax_row_from t src (qs : int array) (cs : float array) base stride p i n =
  if i = Array.length qs then n
  else begin
    let n =
      if relax_to t (base + (stride * qs.(i))) (t.dist_a.(src) +. cs.(i)) p then n + 1 else n
    in
    relax_row_from t src qs cs base stride p (i + 1) n
  end

(* lint: no-alloc *)
let relax_row t src qs cs ~base ~stride p = relax_row_from t src qs cs base stride p 0 0

(* [relax_to], first recording how close the candidate came to the
   distance it competes with: the tie bank of a certified search. *)
(* lint: no-alloc *)
let[@inline] relax_tracked t i d p =
  if t.stamp.(i) <> t.gen then t.gap.(i) <- infinity
  else begin
    let g = Float.abs (d -. t.dist_a.(i)) in
    if g < t.gap.(i) then t.gap.(i) <- g
  end;
  relax_to t i d p

(* lint: no-alloc *)
let relax_reduced t u v weight e p =
  let pv = t.pot.(v) in
  t.path_in.(v) <> e
  && pv < infinity
  &&
  (* [Float.max rc 0.0], spelled out so it inlines: clamps the tiny
     negatives of float rounding (and -0.0) to +0.0, keeps a nan. *)
  let rc = weight.(e) +. t.pot.(u) -. pv in
  let rc = if rc > 0.0 || Float.is_nan rc then rc else 0.0 in
  relax_tracked t v (t.dist_a.(u) +. rc) p

(* lint: no-alloc *)
let relax_reversal t i u p = relax_tracked t i t.dist_a.(u) p

(* lint: no-alloc *)
let near_tie t i tol = t.gap.(i) <= tol

(* lint: no-alloc *)
let heap_clear_above t bound = t.size = 0 || t.prio.(0) > bound

(* lint: no-alloc *)
let first_visit t v =
  if t.visit.(v) = t.gen then false
  else begin
    t.visit.(v) <- t.gen;
    true
  end

(* lint: no-alloc *)
let heap_size t = t.size

(* lint: no-alloc *)
let queued t i = t.stamp.(i) = t.gen && t.pos.(i) >= 0

(* lint: no-alloc *)
let settled t i = t.stamp.(i) = t.gen && t.pos.(i) < 0

(* lint: no-alloc *)
let pop_min t =
  if t.size = 0 then invalid_arg "Workspace.pop_min: empty heap";
  let k = t.keys.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then sift_down t.keys t.prio t.pos t.size t.size 0;
  t.pos.(k) <- -1;
  k

let mark_reset t n =
  if n < 0 then invalid_arg "Workspace.mark_reset: negative id count";
  if n > t.mark_cap then begin
    let cap = grow_size n t.mark_cap in
    t.mark_cap <- cap;
    t.mark_stamp <- Array.make cap 0
  end;
  if t.mark_gen = max_int then begin
    Array.fill t.mark_stamp 0 t.mark_cap 0;
    t.mark_gen <- 0
  end;
  t.mark_gen <- t.mark_gen + 1

(* lint: no-alloc *)
let mark t i = t.mark_stamp.(i) <- t.mark_gen

(* lint: no-alloc *)
let marked t i = t.mark_stamp.(i) = t.mark_gen

let save_potentials t n ~cap:c =
  if n < 0 || n > t.cap then invalid_arg "Workspace.save_potentials: state count";
  if n > Array.length t.pot then begin
    let cap = grow_size n (Array.length t.pot) in
    t.pot <- Array.make cap infinity;
    t.path_in <- Array.make cap (-1);
    t.gap <- Array.make cap infinity
  end;
  for i = 0 to n - 1 do
    let d = dist t i in
    t.pot.(i) <- (if d < c then d else c);
    t.path_in.(i) <- -1
  done

(* lint: no-alloc *)
let set_path_in t i e = t.path_in.(i) <- e

(* lint: no-alloc *)
let path_in t i = t.path_in.(i)
