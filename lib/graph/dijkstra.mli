(** Single-source shortest paths with non-negative edge weights.

    The workhorse of the whole repository: the auxiliary-graph routing of
    Section 3.3, the first pass of Suurballe's algorithm (whose second
    pass runs the same loop on an implicit residual graph), and the
    layered-wavelength-graph search all reduce to this routine.  Uses the
    indexed binary heap inside {!Rr_util.Workspace}
    ([O((n + m) log n)]).

    Edge weights come as a [float array] indexed by edge id ([weight.(e)]
    is the weight of edge [e]; entries of disabled edges are never read).
    The per-edge relax then reads an unboxed float instead of calling a
    closure that returns a boxed one.  Callers holding a weight function
    build the array once per call ([Array.init (Digraph.n_edges g) w]).

    All entry points accept an optional {!Rr_util.Workspace.t}.  With a
    workspace, the search reuses its scratch arrays instead of allocating
    fresh [O(n)] state per call — the intended mode for a long-lived
    router.  A returned {!tree} then aliases the workspace: it stays
    readable only until the workspace's next search, after which its
    accessors raise [Invalid_argument] (staleness is detected, never
    silent).  Without a workspace a private one is allocated and the tree
    remains valid indefinitely.

    With [?obs] each search records a [kernel.dijkstra] latency span,
    [heap.pop]/[heap.insert] operation counters and a
    [workspace.hit]/[workspace.miss] counter (hit = caller-supplied
    workspace reused). *)

type tree

val run :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:float array ->
  source:int ->
  target:int option ->
  tree
(** Shortest-path search; settles every node, or early-exits once [target]
    is settled.  [enabled] filters edges (default: all).  Raises
    [Invalid_argument] on a negative weight encountered during the
    search.

    A tree that early-exited answers only for the nodes the search
    settled (popped), the target and its path included: {!dist},
    {!pred_edge}, {!path_to} and {!dists} raise [Invalid_argument] for
    any other node, whose distance the search never fixed (a queued
    node's tentative distance, or [infinity] for a reachable node it
    never reached).  A search that ran out of nodes before reaching its
    target is complete. *)

val tree :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:float array ->
  source:int ->
  tree
(** Full shortest-path tree ([run] with no target). *)

val dist : tree -> int -> float
(** Distance from the source, or [infinity] if unreachable. *)

val pred_edge : tree -> int -> int
(** Incoming tree edge id, or [-1]. *)

val source : tree -> int

val workspace : tree -> Rr_util.Workspace.t
(** The workspace holding the tree's state (the caller's, or the private
    one allocated for the search).  Its next search makes the tree stale. *)

val dists : tree -> float array
(** Materialise all distances as a fresh array (safe to keep after the
    workspace moves on).  Raises [Invalid_argument] on an early-exited
    tree that left a node unsettled. *)

val shortest_path :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:float array ->
  source:int ->
  target:int ->
  (int list * float) option
(** Edge-id path from source to target and its length, if reachable.
    Early-exits once the target is settled. *)

val path_to : Digraph.t -> tree -> int -> int list option
(** Extract the edge-id path from the tree source to a node. *)

val path_cost : weight:float array -> int list -> float
