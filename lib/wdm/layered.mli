(** Optimal semilightpaths via the layered wavelength graph
    (Chlamtac et al. [5]; Liang–Shen [13]).

    The wavelength graph has a state [(v, λ)] per node and wavelength,
    traversal arcs [(u,λ) -> (v,λ)] of weight [w(e,λ)] for each residual
    link [e = u->v] with [λ ∈ Λ_avail(e)], and conversion arcs
    [(v,λp) -> (v,λq)] of weight [c_v(λp,λq)].  A Dijkstra run from a super
    source gives the minimum-cost semilightpath — this is the
    [O(nW² + nW log (nW))] subroutine of Theorems 1 and 3.

    Each layer point is split into an arrival and a departure state, so a
    search permits AT MOST ONE conversion per node visit — exactly the
    path model {!Semilightpath.validate} checks.  (The naive single-state
    graph admits chained conversion arcs at one node; with range-limited
    converters such a chain reconstructs into a single out-of-range
    wavelength change and the validator rejects the path.)
    {!assign_on_path} is the direct-conversion-only DP used to
    cross-check.

    The searches accept an optional {!Rr_util.Workspace.t} holding the
    [O(nW)] (or [O(nWK)]) distance/predecessor/heap scratch state; a
    long-lived router passes one workspace so repeated queries allocate
    nothing of that size.  Results are materialised before return and do
    not alias the workspace.  With [?obs] they record a [kernel.layered]
    (or [kernel.layered_bounded]) span plus the counters [heap.pop],
    [heap.insert], [conv.expansions] (conversion arcs scanned) and
    [workspace.hit] / [workspace.miss].

    {b First-arrival prune.}  At a node whose converter is [Full c], or
    [Range (r, c)] with [r >= W - 1], both with [c >= 0]
    ({!Network.conv_first_dominates}), {!optimal} scans conversion arcs
    only from the first arrival state popped there.  A later arrival
    [(v, λ₂)] at [d₂ >= d₁] would offer [d₂ + c] to every [dep(v, q)];
    the first scan already set [dep(v, q) <= d₁ + c], and its identity
    arc [dep(v, λ₁) <= d₁], so by monotone float addition every skipped
    relaxation would fail.  Routings, tie order and the heap counters are
    those of the full scan; only [conv.expansions] falls.  [Table]
    converters keep the full scan, and so does {!optimal_bounded}, where
    a later arrival's conversion to [λ₁] lands in another budget layer.

    All searches raise [Invalid_argument] on out-of-range or equal
    endpoints, a negative conversion budget, a path whose links do not
    chain, and on internal predecessor-chain invariant violations. *)

val optimal :
  ?link_enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Network.t ->
  source:int ->
  target:int ->
  (Semilightpath.t * float) option
(** Minimum-cost semilightpath in the residual network (links filtered
    further by [link_enabled], e.g. restricted to an induced subgraph
    [Gᵢ]).  [None] when the target is unreachable. *)

val optimal_cost :
  ?link_enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Network.t ->
  source:int ->
  target:int ->
  float option

val optimal_bounded :
  ?link_enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Network.t ->
  max_conversions:int ->
  source:int ->
  target:int ->
  (Semilightpath.t * float) option
(** Extension: minimum-cost semilightpath using at most [max_conversions]
    wavelength conversions (each conversion is an O-E-O regeneration stage
    in practice, so operators cap them).  [max_conversions = 0] forces
    wavelength continuity; large budgets coincide with {!optimal}.  The
    search runs over the layered graph extended with a remaining-budget
    coordinate — [O(nWK)] states. *)

val assign_on_path :
  Network.t ->
  int list ->
  (Semilightpath.t * float) option
(** [assign_on_path net links] — optimal wavelength assignment for a fixed
    chained physical path, by dynamic programming over wavelengths with
    direct conversions only.  [None] when some link has no available
    wavelength or no allowed conversion chain exists. *)
