(** Suurballe's algorithm: a pair of edge-disjoint paths of minimum total
    weight (Suurballe 1974, in the two-Dijkstra formulation of
    Suurballe–Tarjan).

    This is the optimisation engine behind all three auxiliary-graph
    constructions in the paper: [Find_Two_Paths] (Section 3.3.2) is exactly
    {!edge_disjoint_pair} on [G'], and Sections 4.1/4.2 run it on [G_c] /
    [G_rc].  Weights must be non-negative.  They come as a [float array]
    indexed by edge id, as {!Dijkstra.run} takes them: both passes read
    [weight.(e)] directly, with no closure call and no boxed float per
    arc.

    The returned paths are simple and mutually edge-disjoint; their order is
    unspecified.  The reported cost is the exact sum of the original weights
    over both paths.

    {!edge_disjoint_pair} never materialises the transformed graph of
    the second pass.  Pass 1's distances become potentials and its path's
    arcs are recorded in the workspace
    ({!Rr_util.Workspace.save_potentials}).  Pass 2 then runs on the
    implicit residual graph over the original digraph: each popped node's
    enabled out-edges off the first path under reduced cost
    [max (w e +. π u -. π v) 0], with the zero-cost reversal of the
    first-path edge entering it merged in at its edge id.  That is the
    arc order a materialised graph would list, so relaxations, heap ties
    and float operations — hence the returned pairs — are exactly those
    of the textbook construction.  The cancelled union of both paths is
    then decomposed in ascending edge-id order.

    Both passes stop when the target is settled (the Suurballe–Tarjan
    form: pass 1's potentials are [min (d v) (d t)]), and the result is
    {e certified}: pass 2 records near-ties in the workspace's tie bank,
    and the pair stands only when no node of the returned residual path
    saw one and the heap holds nothing within the tolerance of the
    target's key.  A certified pair is the one the full-tree run
    ({!edge_disjoint_pair_full_tree}) returns, bit for bit; otherwise the
    full-tree run is repeated and its pair returned.  The input decides
    which path runs.  The argument and the float bound on the tolerance
    are in [suurballe.ml] ([certified]).

    All entry points accept an optional {!Rr_util.Workspace.t}, passed
    through to the underlying searches so a long-lived caller reuses one
    set of scratch arrays; both passes of {!edge_disjoint_pair} run on
    it, so a pass-1 {!Dijkstra.tree} taken over the same workspace is
    stale afterwards.  [?obs] records a [kernel.suurballe] span around
    {!edge_disjoint_pair}, and each of its two passes a [kernel.dijkstra]
    span with [heap.pop] / [heap.insert] and [workspace.hit] /
    [workspace.miss] counters, as {!Dijkstra.run} does.  A run whose
    certificate fails counts [suurballe.full_fallback], and its counters
    and spans add up both attempts.

    All entry points raise [Invalid_argument] when [source = target], and
    on the internal invariant violation of a flow decomposition that gets
    stuck (which a correct caller never triggers). *)

val edge_disjoint_pair :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:float array ->
  source:int ->
  target:int ->
  ((int list * int list) * float) option
(** [None] when no two edge-disjoint paths exist. *)

val edge_disjoint_pair_full_tree :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:float array ->
  source:int ->
  target:int ->
  ((int list * int list) * float) option
(** The textbook two-pass run: pass 1 is a full {!Dijkstra.tree} and its
    distances the potentials.  What {!edge_disjoint_pair} falls back on,
    and the reference it is tested against (arcs and cost bits). *)

val edge_disjoint_pair_paper :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:float array ->
  source:int ->
  target:int ->
  ((int list * int list) * float) option
(** The paper's [Find_Two_Paths] loop taken literally: two rounds of
    shortest-path search where the previous round's path edges are
    replaced by reversed arcs of *negated* weight (so Bellman–Ford is
    required), then opposite pairs cancel.  Mathematically equivalent to
    {!edge_disjoint_pair} — property-tested to agree — but a factor
    [n/log n] slower; kept for fidelity and as an independent
    cross-check. *)

val node_disjoint_pair :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:float array ->
  source:int ->
  target:int ->
  ((int list * int list) * float) option
(** Extension beyond the paper: internally-node-disjoint pair via the
    standard node-splitting reduction (protects against single *node*
    failures as well). *)
