(** The WDM optical network [G = (V, E, Λ)] of Section 2.

    A directed multigraph whose links each carry a wavelength set [Λ(e)]
    with per-(link, wavelength) traversal weights [w(e, λ)], and whose nodes
    each host a wavelength converter ({!Conversion.spec}).  The structure
    additionally tracks which wavelengths are currently *in use* by
    established routes, giving the residual network
    [G(V, E, Λ_avail)] and the link/network load of Eq. (2) for free.

    Structure (graph, wavelength sets, weights, converters) is immutable
    after {!create}; only usage is mutable, via {!allocate} / {!release}. *)

type t

type link_spec = {
  ls_src : int;
  ls_dst : int;
  ls_lambdas : int list;          (** wavelength ids present on the link *)
  ls_weight : int -> float;       (** traversal weight per wavelength *)
}

val create :
  n_nodes:int ->
  n_wavelengths:int ->
  links:link_spec list ->
  converters:(int -> Conversion.spec) ->
  t
(** Raises [Invalid_argument] on out-of-range endpoints/wavelengths, empty
    wavelength sets, negative weights, or an invalid converter table. *)

(** {1 Structure} *)

val graph : t -> Rr_graph.Digraph.t
(** The underlying digraph; edge ids coincide with link ids. *)

val n_nodes : t -> int
val n_links : t -> int
val n_wavelengths : t -> int
(** [W], the size of the network-wide wavelength set [Λ]. *)

val link_src : t -> int -> int
val link_dst : t -> int -> int
val find_link : t -> int -> int -> int option
(** First link [u -> v], if any. *)

val lambdas : t -> int -> Rr_util.Bitset.t
(** [Λ(e)]. *)

val weight : t -> int -> int -> float
(** [weight t e λ = w(e, λ)].  Raises [Invalid_argument] if [λ ∉ Λ(e)]. *)

val weight_row : t -> int -> float array
(** [weight_row t e]: [w(e, λ)] for every [λ], indexed by [λ], [nan] where
    [λ ∉ Λ(e)] — the cell {!weight} reads, for loops that must not box a
    float per call.  Owned by the network; callers must not mutate it. *)

val weight_sum : t -> int -> Rr_util.Bitset.t -> float
(** [weight_sum t e s] is [Σ w(e, λ)] over [λ ∈ s], added in ascending [λ]
    from [0.0] — the same float sum as folding {!weight} over [s], without
    a boxed float per wavelength.  Raises [Invalid_argument] if some
    [λ ∈ s] is not in [Λ(e)]. *)

val hop_weights : t -> float array
(** One [1.0] per link: the hop-count [~weight] for {!Rr_graph.Dijkstra}.
    Built once by {!create} and shared with every {!copy}; read-only. *)

val converter : t -> int -> Conversion.spec
val conv_allowed : t -> int -> int -> int -> bool
val conv_cost : t -> int -> int -> int -> float option
(** [conv_cost t v λp λq = c_v(λp, λq)] when allowed. *)

val conv_successors : t -> int -> int -> int array * float array
(** [conv_successors t v λp]: the allowed conversion targets [λq ≠ λp] at
    node [v], ascending, with their costs, as parallel arrays.  Precomputed
    at {!create}; shared by {!copy}.  The arrays are owned by the network —
    callers must not mutate them. *)

val conv_first_dominates : t -> int -> bool
(** Whether node [v] converts any [λp] to any [λq] at one cost [c >= 0]:
    its converter is [Full c], or [Range (r, c)] with [r >= W - 1].  At
    such a node the first conversion scan of a shortest-path search
    dominates every later one (see {!Layered.optimal}).  Precomputed at
    {!create}. *)

(** {1 Usage, residual network, load} *)

val used : t -> int -> Rr_util.Bitset.t
val available : t -> int -> Rr_util.Bitset.t
(** [Λ_avail(e) = Λ(e) \ used(e)]. *)

val is_available : t -> int -> int -> bool
(** [is_available t e λ]: [λ ∈ Λ_avail(e)] and [e] has not failed — one
    load of the availability words below.  Raises [Invalid_argument] when
    [λ] lies outside [\[0, W)]. *)

val has_available : t -> int -> bool
(** Link appears in the residual network iff some wavelength is free. *)

(** {2 Flat views for search kernels}

    The layered kernels fetch these arrays once per search instead of
    calling an accessor per arc.  All are owned by the network and
    read-only to callers; the structural ones are shared by {!copy}. *)

val words_per_link : t -> int
(** [Rr_util.Bitset.n_words W]: availability words per link. *)

val avail_words : t -> int array
(** The availability words, flat: word [k] of link [e] sits at
    [e * words_per_link t + k] in {!Rr_util.Bitset.word}'s layout and
    holds [Λ(e) \ used(e)], or [0] while [e] has failed.  Only this
    module writes them ({!create}, {!allocate}, {!release},
    {!fail_link}, {!repair_link}, {!reset_usage}, {!copy}); the array is
    updated in place, so one fetched before a search stays current. *)

val out_links : t -> int array array
(** Per node, the ids of its out-links ({!Rr_graph.Digraph.out_edges}). *)

val link_dsts : t -> int array
(** Per link, its head node ({!link_dst}). *)

val weight_rows : t -> float array array
(** Per link, its {!weight_row}. *)

val allocate : t -> int -> int -> unit
(** [allocate t e λ] marks λ in use on link [e].
    Raises [Invalid_argument] if not currently available. *)

val release : t -> int -> int -> unit
(** Inverse of {!allocate}; raises if not in use. *)

val link_load : t -> int -> float
(** [ρ(e) = U(e) / N(e)] (Eq. 2). *)

val network_load : t -> float
(** [ρ = max_e ρ(e)]. *)

val total_in_use : t -> int
(** Σ_e U(e) — conservation checks in the simulator tests. *)

val copy : t -> t
(** Deep copy (usage state included) for what-if evaluation. *)

val reset_usage : t -> unit

(** {1 Failure modelling} *)

val fail_link : t -> int -> unit
(** Marks a link failed: it leaves the residual network entirely and
    {!allocate} on it raises.  Wavelength bookkeeping is preserved so
    {!repair_link} restores the previous state. *)

val repair_link : t -> int -> unit
val is_failed : t -> int -> bool

val pp : Format.formatter -> t -> unit
