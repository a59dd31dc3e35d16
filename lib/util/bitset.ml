let bits_per_word = 62

type t = { width : int; words : int array }

let n_words width = max 1 ((width + bits_per_word - 1) / bits_per_word)

let create width =
  if width < 0 then invalid_arg "Bitset.create";
  { width; words = Array.make (n_words width) 0 }

let width t = t.width

let check t i =
  if i < 0 || i >= t.width then invalid_arg "Bitset: element out of range"

(* lint: no-alloc *)
let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  let words = Array.copy t.words in
  words.(w) <- words.(w) lor (1 lsl b);
  { t with words }

let remove t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  let words = Array.copy t.words in
  words.(w) <- words.(w) land lnot (1 lsl b);
  { t with words }

let full w =
  let t = create w in
  let words = Array.copy t.words in
  let full_word = (1 lsl bits_per_word) - 1 in
  for i = 0 to Array.length words - 1 do
    words.(i) <- full_word
  done;
  (* Mask off unused high bits of the last word. *)
  let rem = w mod bits_per_word in
  if rem > 0 && w > 0 then
    words.(Array.length words - 1) <- (1 lsl rem) - 1;
  if w = 0 then words.(0) <- 0;
  { width = w; words }

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* SWAR popcount of one word (at most 62 bits set, so every partial sum
   fits its field and the final byte sum fits 7 bits). *)
(* lint: no-alloc *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  (x + (x lsr 32)) land 0x7F

(* The word-level operations read a set as [n] words stored from
   [words.(off)]: a set's own array, or one link's slice of a flat array
   (the network's availability words). *)

(* lint: no-alloc *)
let rec count_words words i stop acc =
  if i = stop then acc else count_words words (i + 1) stop (acc + popcount words.(i))

(* lint: no-alloc *)
let cardinal t = count_words t.words 0 (Array.length t.words) 0

(* lint: no-alloc *)
let cardinal_words words off ~n = count_words words off (off + n) 0

let word_mask = (1 lsl bits_per_word) - 1

(* lint: no-alloc *)
let word_in words off n k = if k >= 0 && k < n then words.(off + k) else 0

(* lint: no-alloc *)
let word b k = word_in b.words 0 (Array.length b.words) k

(* Here the divisor is a known constant, which the compiler turns into a
   multiplication; callers in other modules would pay a division. *)
(* lint: no-alloc *)
let word_of i = i / bits_per_word

(* lint: no-alloc *)
let bit_of i = 1 lsl (i mod bits_per_word)

(* Word [k] of a set shifted down by [d] elements (up for negative [d]):
   bit j of the result is element [62k + j + d] of the set. *)
(* lint: no-alloc *)
let shifted_word words off n k d =
  if d >= 0 then begin
    let q = d / bits_per_word and r = d mod bits_per_word in
    if r = 0 then word_in words off n (k + q)
    else
      (word_in words off n (k + q) lsr r)
      lor ((word_in words off n (k + q + 1) lsl (bits_per_word - r)) land word_mask)
  end
  else begin
    let q = -d / bits_per_word and r = -d mod bits_per_word in
    if r = 0 then word_in words off n (k - q)
    else
      ((word_in words off n (k - q) lsl r) land word_mask)
      lor (word_in words off n (k - q - 1) lsr (bits_per_word - r))
  end

(* lint: no-alloc *)
let rec count_shifted a oa b ob n d k acc =
  if k = n then acc
  else
    count_shifted a oa b ob n d (k + 1)
      (acc + popcount (a.(oa + k) land shifted_word b ob n k d))

(* lint: no-alloc *)
let count_inter_shifted a b d =
  if a.width <> b.width then invalid_arg "Bitset.count_inter_shifted: width mismatch";
  count_shifted a.words 0 b.words 0 (Array.length a.words) d 0 0

(* lint: no-alloc *)
let count_inter_shifted_words a oa b ob ~n d = count_shifted a oa b ob n d 0 0

let of_list w l = List.fold_left add (create w) l

let fold f t init =
  let acc = ref init in
  for i = 0 to t.width - 1 do
    if mem t i then acc := f i !acc
  done;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])
let elements = to_list

let iter f t =
  for i = 0 to t.width - 1 do
    if mem t i then f i
  done

let binop name op a b =
  if a.width <> b.width then invalid_arg ("Bitset." ^ name ^ ": width mismatch");
  { width = a.width; words = Array.init (Array.length a.words) (fun i -> op a.words.(i) b.words.(i)) }

let union a b = binop "union" ( lor ) a b
let inter a b = binop "inter" ( land ) a b
let diff a b = binop "diff" (fun x y -> x land lnot y) a b

let subset a b =
  if a.width <> b.width then invalid_arg "Bitset.subset: width mismatch";
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land lnot b.words.(i) <> 0 then ok := false
  done;
  !ok

let equal a b =
  a.width = b.width
  &&
  let n = Array.length a.words in
  n = Array.length b.words
  &&
  let rec go i = i >= n || (a.words.(i) = b.words.(i) && go (i + 1)) in
  go 0

let choose t =
  let rec go i = if i >= t.width then None else if mem t i then Some i else go (i + 1) in
  go 0

let pp fmt t =
  Format.fprintf fmt "{%s}" (String.concat "," (List.map string_of_int (to_list t)))
