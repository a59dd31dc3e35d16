(** Indexed binary min-heap over the integer keys [0 .. capacity-1].

    This is the priority queue used by every Dijkstra-style routine in the
    repository: each key (a graph node id) appears at most once, and
    [decrease] adjusts its priority in O(log n).  Keys are dense small
    integers so positions are tracked in a flat array, which keeps the heap
    allocation-free on the hot path. *)

type t

val create : int -> t
(** [create capacity] makes an empty heap accepting keys in
    [\[0, capacity)]. *)

val is_empty : t -> bool
val cardinal : t -> int

val mem : t -> int -> bool
(** Whether the key is currently queued. *)

val priority : t -> int -> float
(** Current priority of a queued key. Raises [Not_found] otherwise. *)

val insert : t -> int -> float -> unit
(** [insert h k p] queues key [k] at priority [p].
    Raises [Invalid_argument] if [k] is already queued or out of range. *)

val decrease : t -> int -> float -> unit
(** [decrease h k p] lowers [k]'s priority to [p].
    Raises [Invalid_argument] if [k] is not queued or [p] is larger than the
    current priority. *)

val insert_or_decrease : t -> int -> float -> unit
(** Insert the key, or decrease its priority if the new one is smaller;
    no-op when the key is queued with a smaller-or-equal priority. *)

val pop_min : t -> (int * float) option
(** Remove and return the minimum-priority entry. *)

val pop_min_key : t -> int
(** Remove the minimum-priority entry and return its key, allocating
    nothing: the hot-loop form of {!pop_min} for searches that keep each
    key's priority elsewhere (a {!Workspace} distance).  Pops the same key
    {!pop_min} would.  Raises [Invalid_argument] on an empty heap. *)

val clear : t -> unit
