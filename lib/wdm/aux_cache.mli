(** Incremental auxiliary-graph engine.

    {!Auxiliary.gprime} rebuilds [G'] from scratch for every request even
    though an admission or release only perturbs the residual wavelength
    sets of the handful of links its two paths traverse.  An {!t} instead
    constructs, once per network, a frozen *superset* graph containing a
    traversal arc for every physical link, a conversion arc for every
    structurally feasible (in-link, out-link) pair (feasibility over the
    full wavelength sets [Λ(e)], a monotone superset of feasibility over
    any residual state), and source/sink taps for {e every} link into the
    shared [s']/[t''] nodes.  Arc weights and an [active] mask live in
    mutable arrays; {!sync} diffs the network's per-link residual state
    against a remembered fingerprint and recomputes only the arcs incident
    to links that changed.  Source/target taps are a per-request overlay
    ({!gprime_view}), so the cache itself is request-independent.

    {b Byte-identity.}  The superset graph uses the same node numbering as
    a fresh {!Auxiliary.gprime} ([u_out^e = 2e], [v_in^e = 2e+1],
    [s' = 2m], [t'' = 2m+1]) and inserts arcs in the same group order
    (traversals ascending, conversions by (node, in-edge, out-edge),
    source taps ascending, sink taps ascending), so the [active]-filtered
    arc subsequence is order-isomorphic to a fresh graph's arc list.  All
    weights are recomputed with the same floating-point operation
    sequences as the fresh constructors.  Dijkstra/Suurballe under the
    [enabled] predicate therefore perform the identical relaxation and
    heap-operation sequence, and routing decisions are bit-for-bit
    identical to the rebuild path (enforced by the [auxcache] fuzz case
    and the bench smoke).

    {b Discipline.}  Call {!sync} after any [allocate]/[release]/
    [fail_link]/[repair_link] activity and before taking a view; the
    cost and load policies in [Robust_routing] (which take the cache as a
    required argument, inside a [Router.ctx]) do this once per request.
    Views share the cache's mutable arrays: use a view (and its [enabled]
    predicate) before creating the next one, and do not keep it across a
    later {!sync}.

    {b The one engine.}  Every admission routes on a cache; a fresh
    {!Auxiliary.gprime}/{!Auxiliary.gc}/{!Auxiliary.grc} build is only
    the oracle the views are checked against (and the paper's
    construction the THM-1 bench times).  A one-shot caller pays one
    {!create} plus one view: several times cheaper than one fresh
    {!Auxiliary.gprime} under range-limited converters, up to 1.6x
    dearer under [Full] ones. *)

type t

type sync_stats = {
  touched : int;  (** links whose residual state changed since last sync *)
  recomputed_arcs : int;
      (** traversal + conversion arcs whose weight/activity was recomputed
          (tap toggles not counted; conversion arcs deduplicated) *)
  full_rebuild : bool;
      (** more than half the links changed: every link was recomputed *)
}

val create : Network.t -> t
(** Build the superset graph and compute all weights for the network's
    current residual state.  O(m·W + conversion-arc count · W/62) for
    [No_conversion], [Full] and [Range] converters (see
    {!mean_conversion}). *)

val network : t -> Network.t
(** The network the cache is bound to; the policies route on it. *)

val sync : ?obs:Rr_obs.Obs.t -> t -> sync_stats
(** Diff the per-link residual fingerprints (bitset pointer + semantic
    fallback + failure flag) and recompute the traversal weight, incident
    conversion arcs and tap activity of every changed link.  When more
    than half the links changed, falls back to a full recompute.  Records
    a [stage.aux_delta] span and [aux.cache.hit] / [aux.cache.rebuild] /
    [aux.cache.links_touched] counters on [obs].

    {b Cost.}  O(m) for the fingerprint scan, plus per changed link an
    O(W) traversal refresh and one {!mean_conversion} per incident
    conversion arc, read in place from the two links' availability words
    ({!Network.avail_words}), so no residual set is built per arc.  For
    [Range (r, _)] converters the mean costs [2r + 1] shifted-intersection
    counts of ⌈W/62⌉ words each and no allocation beyond its result: the
    conversion-arc refresh, once most of a sync, no longer dominates it.
    (Caching the residual sets per link instead measured slower and
    raised peak memory: every cached set is promoted out of the minor
    heap.  A per-sync memo, cleared when the sync ends, kept peak memory
    flat but still measured slower end to end.) *)

val mean_conversion :
  Network.t -> int -> Rr_util.Bitset.t -> Rr_util.Bitset.t -> float option
(** [mean_conversion net v avail_in avail_out]: the weight of the
    conversion arc at node [v] between links with residual sets
    [avail_in] and [avail_out], bit for bit {!Auxiliary.mean_conversion}
    (the dense oracle).  [No_conversion], [Full] and [Range] converters
    take word-parallel counts
    ({!Rr_util.Bitset.count_inter_shifted_words}); [Table] converters
    walk the precomputed successor lists.  {!sync} runs the same code on
    the links' availability words in place. *)

val last_stats : t -> sync_stats
(** Stats of the most recent {!sync} (zeros before the first). *)

val gprime_view : t -> source:int -> target:int -> Auxiliary.t * (int -> bool)
(** [G'] for one request: the shared graph with the maintained [G']
    weights, plus the arc-enabled predicate encoding residual inclusion
    and this request's taps.  Pass the predicate to
    {!Auxiliary.disjoint_pair}'s [?enabled]. *)

val gc_view :
  t -> theta:float -> ?base:float -> source:int -> target:int -> unit ->
  Auxiliary.t * (int -> bool)
(** [G_c] under load threshold [theta]: congestion traversal weights
    (maintained for [base], default 16; switching base recomputes the m
    traversal weights), zero-weight conversion arcs, and the threshold
    filter folded into the predicate. *)

val grc_view :
  t -> theta:float -> source:int -> target:int -> Auxiliary.t * (int -> bool)
(** [G_rc] under load threshold [theta]: [G']'s conversion weights (shared
    with the maintained arrays), traversal sums divided by [N(e)]. *)

val conv_arcs_incident : t -> int list -> int
(** Number of distinct conversion arcs incident (as in-link or out-link)
    to the given physical links — the exact expected
    [recomputed_arcs - |links|] of a sync touching those links (used by
    the epoch-invalidation unit tests). *)
