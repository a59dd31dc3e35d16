(** Fixed-width bitsets.

    Wavelength sets [Λ(e)] and availability masks are bitsets indexed by
    wavelength id.  Widths are small (tens of wavelengths) but unbounded in
    principle, so the representation is an immutable [int array] of 62-bit
    words; all operations allocate fresh sets, which keeps residual-network
    snapshots cheap to share. *)

type t

val create : int -> t
(** [create width] is the empty set over universe [\[0, width)]. *)

val width : t -> int
val is_empty : t -> bool

val cardinal : t -> int
(** Number of elements: a constant-time popcount per 62-bit word,
    allocation-free. *)

val count_inter_shifted : t -> t -> int -> int
(** [count_inter_shifted a b d] is [|{i ∈ a : i + d ∈ b}|], counted a word
    at a time without allocating ([d] may be negative; [d = 0] gives
    [|a ∩ b|]).  Raises [Invalid_argument] on a width mismatch. *)

val mem : t -> int -> bool
val add : t -> int -> t
val remove : t -> int -> t

val full : int -> t
(** [full width] contains every element of the universe. *)

val of_list : int -> int list -> t
val to_list : t -> int list
val elements : t -> int list
(** Alias of [to_list]. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val subset : t -> t -> bool
val equal : t -> t -> bool

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val choose : t -> int option
(** Smallest element, if any. *)

val bits_per_word : int
(** Elements per word of the representation: element [i] is bit
    [i mod bits_per_word] of word [i / bits_per_word]. *)

val n_words : int -> int
(** [n_words width]: the words a set over [\[0, width)] holds (at least
    one). *)

val word : t -> int -> int
(** [word s k]: word [k] of [s] in the layout above, [0] for a [k]
    beyond the set's words.  Allocation-free.  Flat word arrays built
    from it (the network's availability words) answer membership with
    one load and a mask. *)

val cardinal_words : int array -> int -> n:int -> int
(** [cardinal_words words off ~n]: {!cardinal} of the set held in the
    [n] words [words.(off) .. words.(off + n - 1)] (the layout above). *)

val count_inter_shifted_words :
  int array -> int -> int array -> int -> n:int -> int -> int
(** [count_inter_shifted_words a oa b ob ~n d]: {!count_inter_shifted}
    of the sets held in [n] words each from [a.(oa)] and [b.(ob)] —
    for slices of a flat word array, such as one link's availability
    words.  Allocation-free. *)

val word_of : int -> int
(** [word_of i]: the index of the word holding element [i]. *)

val bit_of : int -> int
(** [bit_of i]: the mask of element [i] within that word, so that
    [mem s i] is [word s (word_of i) land bit_of i <> 0]. *)

val pp : Format.formatter -> t -> unit
