(** Reusable shortest-path scratch space.

    Every Dijkstra-style search in the repository needs the same transient
    state: a distance array, a predecessor array and an indexed binary
    min-heap, all sized by the state count of the search ([n] for plain
    graphs, [nW] or [nWK] for layered wavelength graphs).  Allocating them
    per request is the dominant constant factor of a long-lived router, so
    a workspace owns them once and rents them out per search.

    The heap lives inside the workspace: {!relax} records an improved
    distance and inserts or decreases the state's heap entry in the same
    step, and {!pop_min} removes the state of least distance.  Both sift
    in this module, next to the arrays they touch, and allocate nothing.
    The sifts make exactly the comparisons of a textbook swap-based
    binary heap, so the heap layout and the pop order among equal
    distances are that heap's.

    Clearing is O(1): entries are stamped with a generation counter, and
    {!reset} simply bumps the generation and empties the heap — a reused
    [float array] never needs a full [Array.fill] on the hot path.  An
    entry whose stamp does not match the current generation reads as
    unset ([infinity] distance, [-1] predecessor, not queued).

    A workspace additionally carries an independent generation-stamped
    integer set ({!mark_reset} / {!mark} / {!marked}), used to test
    link-subset membership (the induced-subgraph refinements of the
    Section 3.3 pipeline) without building a hash table per request.

    A per-node stamp ({!first_visit}) shares the distance generation: it
    lets a search act only on the first visit of a node, reset with the
    distances in O(1).

    A third bank serves two-pass searches such as Suurballe's: a
    {e potential} per state, copied from a finished search's distances by
    {!save_potentials}, and one {e path slot} per state naming a path arc
    that enters it.  Both survive {!reset}, so the second pass can run on
    the same distance arrays while reading the first pass's results.  The
    second pass's tracked relaxations ({!relax_reduced},
    {!relax_reversal}) also fill a {e tie bank}: per state, the closest a
    rival candidate came to its distance, which {!near_tie} reads to
    certify that a returned path had no near-equal alternative.

    {b Not domain-safe.}  A workspace must only ever be used by one domain
    at a time; give each worker of a parallel batch its own workspace (see
    {!Rr_core.Parallel} users).  Within a domain, searches may share one
    workspace only sequentially: starting a new search invalidates the
    previous search's state. *)

type t

val create : ?capacity:int -> ?generation:int -> unit -> t
(** Fresh workspace.  [capacity] pre-sizes the arrays (they grow on demand
    otherwise).  [generation] (default 1) is the generation before the
    first {!reset}; tests start near [max_int] to reach the wrap, where
    {!reset} clears every stamp and restarts at 1.  Raises
    [Invalid_argument] if it is not positive. *)

val reset : t -> int -> unit
(** [reset ws n] begins a new search over states [0 .. n-1]: grows the
    arrays if needed, logically clears distances and predecessors, and
    empties the heap, all in O(1).  Raises [Invalid_argument] if
    [n < 0]. *)

val dist : t -> int -> float
(** Distance of a state, or [infinity] if unset since the last {!reset}. *)

val pred : t -> int -> int
(** Predecessor code of a state, or [-1] if unset. *)

val relax : t -> int -> float -> int -> bool
(** [relax ws state d p]: when [d] improves the state's distance, records
    [d] and predecessor code [p] and inserts the state into the heap at
    priority [d] (or decreases its entry there; a state popped earlier in
    the search is inserted again).  Whether it did.  Allocation-free, but
    a caller in another module boxes the float it passes; the per-arc
    steps of a search use {!relax_copy}, {!relax_add} or
    {!relax_reduced}. *)

val relax_copy : t -> int -> int -> int -> bool
(** [relax_copy ws i src p] is [relax ws i (dist ws src) p] for a state
    [src] already set in this search (a popped state): a zero-cost arc.
    Allocation-free; no float crosses the call. *)

val relax_add : t -> int -> int -> float array -> int -> int -> bool
(** [relax_add ws i src x j p] is [relax ws i (dist ws src +. x.(j)) p]
    for a state [src] already set in this search (a popped state): an arc
    of weight [x.(j)] — [Dijkstra] passes its weight array and the arc
    id, the layered search a link's wavelength row or a conversion-cost
    list.  The candidate distance never leaves an unboxed register: the
    per-arc step of a search allocates nothing. *)

val relax_row :
  t -> int -> int array -> float array -> base:int -> stride:int -> int -> int
(** [relax_row ws src qs cs ~base ~stride p] is {!relax_add}
    [ws (base + stride * qs.(i)) src cs i p] for every [i] in ascending
    order — a whole row of arcs out of one popped state, such as the
    conversion arcs of a layered search — and returns how many of them
    succeeded.  The same relaxations, in the same order, as the calls one
    by one, in one call.  Allocation-free. *)

val first_visit : t -> int -> bool
(** [first_visit ws v]: whether this is the first call for node [v] since
    the last {!reset}; the call marks [v] visited.  Node ids share the
    state arrays' bounds ([v < n] for the [n] of {!reset}).
    Allocation-free. *)

val pop_min : t -> int
(** Remove the queued state of least distance and return it (its
    distance is {!dist}).  Allocation-free.  Raises [Invalid_argument] on
    an empty heap. *)

val heap_size : t -> int
(** Number of states queued. *)

val queued : t -> int -> bool
(** Whether a state is queued (relaxed since the last {!reset} and not
    popped since). *)

val settled : t -> int -> bool
(** Whether a state has been popped since the last {!reset} and not
    queued again since. *)

val generation : t -> int
(** Current generation, bumped by every {!reset}.  Search results that
    alias the workspace record it to detect staleness. *)

val mark_reset : t -> int -> unit
(** Begin a new marked set over ids [0 .. n-1] (O(1) clear).  Independent
    of {!reset}: marks survive distance resets and vice versa. *)

val mark : t -> int -> unit

val marked : t -> int -> bool

val save_potentials : t -> int -> cap:float -> unit
(** [save_potentials ws n ~cap] copies the distances of states
    [0 .. n-1] (as {!dist} reads them, [infinity] when unset), each
    capped at [cap], into the potential bank and clears their path slots
    to [-1].  [cap = infinity] keeps a finished search's distances; the
    distance of the target where a search stopped gives the potentials
    [min (d v) (d t)] of a target-bounded search.  O(n).  Raises
    [Invalid_argument] when [n] is negative or beyond the arrays
    {!reset} has sized. *)

val relax_reduced : t -> int -> int -> float array -> int -> int -> bool
(** [relax_reduced ws u v weight e p] relaxes arc [e : u -> v] out of the
    popped state [u] under the saved potentials: {!relax} [v] with
    [dist u +. max (weight.(e) +. π u -. π v) 0], π being the potentials
    (the clamp absorbs rounding below zero).  A [v] of infinite potential
    is never relaxed, nor is [e] when it is [v]'s path slot (a path arc
    is residual only reversed).  Allocation-free, like {!relax_add}.

    Tracked: before relaxing, it records in the tie bank how close the
    candidate came to [v]'s current distance (see {!near_tie}). *)

val relax_reversal : t -> int -> int -> int -> bool
(** [relax_reversal ws i u p] is [relax ws i (dist ws u) p] for the
    popped state [u] — the zero-cost reversal of a path arc — tracked in
    the tie bank like {!relax_reduced}.  Allocation-free. *)

val near_tie : t -> int -> float -> bool
(** [near_tie ws v tol]: whether a tracked relaxation of [v] since the
    last {!reset} offered a candidate within [tol] of [v]'s distance at
    that moment (the first candidate, which finds [v] unset, is not
    compared).  Meaningless for a state first set by an untracked
    {!relax}, such as the search's source.  The tie bank is sized by
    {!save_potentials}; [v] must lie below its [n]. *)

val heap_clear_above : t -> float -> bool
(** [heap_clear_above ws bound]: whether every queued state's distance
    exceeds [bound] (true on an empty heap). *)

val set_path_in : t -> int -> int -> unit
(** [set_path_in ws v e] records arc [e] as the path arc entering [v]
    ([-1] clears it). *)

val path_in : t -> int -> int
(** The path arc entering a state, or [-1]. *)
