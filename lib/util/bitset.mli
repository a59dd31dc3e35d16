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

val pp : Format.formatter -> t -> unit
