(** Pairing heap with handle-based decrease-key.

    A functional-interface-over-mutable-nodes min-heap, for keys that are
    not dense integers; the simulator's event queue is built on it.
    Amortised O(1) insert/meld and O(log n) pop; decrease-key is
    o(log n) amortised. *)

type 'a t
type 'a handle

val create : unit -> 'a t
val is_empty : 'a t -> bool
val cardinal : 'a t -> int

val insert : 'a t -> float -> 'a -> 'a handle
(** [insert h prio v] queues [v]; the handle supports later [decrease]. *)

val find_min : 'a t -> (float * 'a) option
val pop_min : 'a t -> (float * 'a) option

val decrease : 'a t -> 'a handle -> float -> unit
(** Lower the handle's priority.  Raises [Invalid_argument] on an increase
    or on a handle already removed from the heap. *)

val value : 'a handle -> 'a
val priority : 'a handle -> float
