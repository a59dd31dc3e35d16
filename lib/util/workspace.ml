type t = {
  mutable cap : int;
  mutable dist_a : float array;
  mutable pred_a : int array;
  mutable stamp : int array;
  mutable gen : int;
  mutable hp : Indexed_heap.t;
  mutable hp_cap : int;
  mutable mark_cap : int;
  mutable mark_stamp : int array;
  mutable mark_gen : int;
  mutable pot : float array;
  mutable path_in : int array;
}

let grow_size needed current = max needed (max 16 (2 * current))

let create ?(capacity = 0) () =
  let cap = max capacity 1 in
  {
    cap;
    dist_a = Array.make cap infinity;
    pred_a = Array.make cap (-1);
    stamp = Array.make cap 0;
    gen = 1;
    hp = Indexed_heap.create cap;
    hp_cap = cap;
    mark_cap = 1;
    mark_stamp = Array.make 1 0;
    mark_gen = 1;
    pot = Array.make 1 infinity;
    path_in = Array.make 1 (-1);
  }

let reset t n =
  if n < 0 then invalid_arg "Workspace.reset: negative state count";
  if n > t.cap then begin
    (* Fresh zero stamps never match the (monotone, >= 1) generation. *)
    let cap = grow_size n t.cap in
    t.cap <- cap;
    t.dist_a <- Array.make cap infinity;
    t.pred_a <- Array.make cap (-1);
    t.stamp <- Array.make cap 0
  end;
  if t.gen = max_int then begin
    (* Generation wrap: one full clear every 2^62 searches. *)
    Array.fill t.stamp 0 t.cap 0;
    t.gen <- 0
  end;
  t.gen <- t.gen + 1

let dist t i = if t.stamp.(i) = t.gen then t.dist_a.(i) else infinity

(* lint: no-alloc *)
let pred t i = if t.stamp.(i) = t.gen then t.pred_a.(i) else -1

(* lint: no-alloc *)
let is_set t i = t.stamp.(i) = t.gen

(* lint: no-alloc *)
let set t i d p =
  t.dist_a.(i) <- d;
  t.pred_a.(i) <- p;
  t.stamp.(i) <- t.gen

(* lint: no-alloc *)
let generation t = t.gen

(* lint: no-alloc *)
let relax t i d p =
  if d < dist t i then begin
    set t i d p;
    Indexed_heap.insert_or_decrease t.hp i d;
    true
  end
  else false

let heap t n =
  if n > t.hp_cap then begin
    let cap = grow_size n t.hp_cap in
    t.hp <- Indexed_heap.create cap;
    t.hp_cap <- cap
  end
  else Indexed_heap.clear t.hp;
  t.hp

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

let save_potentials t n =
  if n < 0 || n > t.cap then invalid_arg "Workspace.save_potentials: state count";
  if n > Array.length t.pot then begin
    let cap = grow_size n (Array.length t.pot) in
    t.pot <- Array.make cap infinity;
    t.path_in <- Array.make cap (-1)
  end;
  for i = 0 to n - 1 do
    t.pot.(i) <- dist t i;
    t.path_in.(i) <- -1
  done

(* lint: no-alloc *)
let relax_reduced t u v du w p =
  let pv = t.pot.(v) in
  (* Clamp tiny negatives from float rounding. *)
  pv < infinity && relax t v (du +. Float.max (w +. t.pot.(u) -. pv) 0.0) p

(* lint: no-alloc *)
let set_path_in t i e = t.path_in.(i) <- e

(* lint: no-alloc *)
let path_in t i = t.path_in.(i)
