(** The Section 3.3 approximation algorithm for the optimal edge-disjoint
    semilightpath problem.

    Pipeline: build the auxiliary graph [G'] on the residual network, run
    Suurballe ([Find_Two_Paths]) from [s'] to [t''], induce the two
    link-disjoint physical subgraphs [G₁], [G₂], and refine each with the
    optimal-semilightpath search (Lemma 2).  Theorem 2: the result costs at
    most twice the optimum when every node's conversion cost is bounded by
    the cost of traversing any incident link. *)

type detail = {
  aux : Rr_wdm.Auxiliary.t;
  aux_weight : float;
      (** ω(P₁) + ω(P₂) — also the cost of the unrefined images
          [P₁₁], [P₂₂] (proof of Lemma 2). *)
  links1 : int list;  (** physical links induced by the first aux path *)
  links2 : int list;
  solution : Types.solution;
  refined_cost : float;  (** C(P₁′) + C(P₂′) ≤ [aux_weight] *)
}

val refine :
  Rr_wdm.Network.t ->
  ?workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  source:int ->
  target:int ->
  int list ->
  (Rr_wdm.Semilightpath.t * float) option
(** [refine net ~source ~target links]: the minimum-cost semilightpath
    within the physical subgraph the links induce (the refinement step of
    Lemma 2), or [None].  A layered optimum that revisits a physical link
    (see {!Rr_wdm.Semilightpath.link_simple}) is not a semilightpath: it is
    screened out, counted as [refine.nonsimple], and reads as [None].
    Every policy that refines auxiliary-graph paths goes through this one
    screen.  With a workspace, link membership uses its mark set. *)

val route :
  ?aux_cache:Rr_wdm.Aux_cache.t ->
  ?workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  source:int ->
  target:int ->
  (Types.solution, Types.blocked) result
(** [Error No_disjoint_pair] when Suurballe finds no two edge-disjoint
    paths in [G′]; [Error No_wavelength] when a refinement finds no
    semilightpath in its induced subgraph (a degenerate converter
    configuration with no consistent wavelength chain — impossible under
    the paper's full-switching assumption (i)).  [workspace] is shared by
    the Suurballe passes and the layered refinements.

    With [?obs] the pipeline records per-stage latency spans
    ([stage.aux_graph], [stage.disjoint_pair], [stage.induce],
    [stage.refine]) and a [refine.nonsimple] counter for layered walks
    screened out for revisiting a physical link (see
    {!Rr_wdm.Semilightpath.link_simple}).  It counts no blocking cause:
    {!Router.route} counts the returned one.

    With [?aux_cache] (an {!Rr_wdm.Aux_cache} bound to [net]) the [G']
    build is replaced by an incremental sync ([stage.aux_delta] instead of
    [stage.aux_graph]); results are byte-identical.  Raises
    [Invalid_argument] if the cache is bound to a different network. *)

val route_detailed :
  ?aux_cache:Rr_wdm.Aux_cache.t ->
  ?workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  source:int ->
  target:int ->
  (detail, Types.blocked) result
(** Same, exposing the intermediate quantities that the Lemma 2 and
    Theorem 2 experiments report. *)
