type t = {
  mutable size : int;
  keys : int array;        (* heap slot -> key *)
  prio : float array;      (* heap slot -> priority *)
  pos : int array;         (* key -> heap slot, or -1 *)
}

let create capacity =
  if capacity < 0 then invalid_arg "Indexed_heap.create";
  {
    size = 0;
    keys = Array.make (max capacity 1) (-1);
    prio = Array.make (max capacity 1) nan;
    pos = Array.make (max capacity 1) (-1);
  }

let is_empty t = t.size = 0
let cardinal t = t.size

let mem t k = k >= 0 && k < Array.length t.pos && t.pos.(k) >= 0

let priority t k =
  if not (mem t k) then raise Not_found;
  t.prio.(t.pos.(k))

(* lint: no-alloc *)
let swap t i j =
  let ki = t.keys.(i) and kj = t.keys.(j) in
  let pi = t.prio.(i) and pj = t.prio.(j) in
  t.keys.(i) <- kj; t.keys.(j) <- ki;
  t.prio.(i) <- pj; t.prio.(j) <- pi;
  t.pos.(kj) <- i; t.pos.(ki) <- j

(* lint: no-alloc *)
let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prio.(i) < t.prio.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

(* lint: no-alloc *)
let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && t.prio.(l) < t.prio.(i) then l else i in
  let smallest =
    if r < t.size && t.prio.(r) < t.prio.(smallest) then r else smallest
  in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

(* lint: no-alloc *)
let insert t k p =
  if k < 0 || k >= Array.length t.pos then invalid_arg "Indexed_heap.insert: key out of range";
  if t.pos.(k) >= 0 then invalid_arg "Indexed_heap.insert: key already queued";
  let i = t.size in
  t.size <- t.size + 1;
  t.keys.(i) <- k;
  t.prio.(i) <- p;
  t.pos.(k) <- i;
  sift_up t i

(* lint: no-alloc *)
let decrease t k p =
  if not (mem t k) then invalid_arg "Indexed_heap.decrease: key not queued";
  let i = t.pos.(k) in
  if p > t.prio.(i) then invalid_arg "Indexed_heap.decrease: priority increase";
  t.prio.(i) <- p;
  sift_up t i

(* lint: no-alloc *)
let insert_or_decrease t k p =
  if mem t k then begin
    if p < t.prio.(t.pos.(k)) then decrease t k p
  end else insert t k p

(* lint: no-alloc *)
let pop_min_key t =
  if t.size = 0 then invalid_arg "Indexed_heap.pop_min_key: empty heap";
  let k = t.keys.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    let last = t.size in
    t.keys.(0) <- t.keys.(last);
    t.prio.(0) <- t.prio.(last);
    t.pos.(t.keys.(0)) <- 0;
    sift_down t 0
  end;
  t.pos.(k) <- -1;
  k

let pop_min t =
  if t.size = 0 then None
  else begin
    let p = t.prio.(0) in
    let k = pop_min_key t in
    Some (k, p)
  end

let clear t =
  for i = 0 to t.size - 1 do
    t.pos.(t.keys.(i)) <- -1
  done;
  t.size <- 0
