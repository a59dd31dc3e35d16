(** The Section 3.3 approximation algorithm for the optimal edge-disjoint
    semilightpath problem.

    Pipeline: build the auxiliary graph [G'] on the residual network, run
    Suurballe ([Find_Two_Paths]) from [s'] to [t''], induce the two
    link-disjoint physical subgraphs [G₁], [G₂], and refine each with the
    optimal-semilightpath search (Lemma 2).  Theorem 2: the result costs at
    most twice the optimum when every node's conversion cost is bounded by
    the cost of traversing any incident link.

    The paper builds [G'] afresh per request; the library takes it from
    an incremental {!Rr_wdm.Aux_cache} view instead ({!route}), and keeps
    the from-scratch build only as an oracle ({!route_on} on
    {!Rr_wdm.Auxiliary.gprime}). *)

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
  workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  source:int ->
  target:int ->
  int list ->
  (Rr_wdm.Semilightpath.t * float) option
(** [refine ~workspace net ~source ~target links]: the minimum-cost
    semilightpath within the physical subgraph the links induce (the
    refinement step of Lemma 2), or [None].  Link membership uses the
    workspace's mark set.  A layered optimum that revisits a physical link
    (see {!Rr_wdm.Semilightpath.link_simple}) is not a semilightpath: it is
    screened out, counted as [refine.nonsimple], and reads as [None].
    Every policy that refines auxiliary-graph paths goes through this one
    screen. *)

val route_on :
  workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  ?enabled:(int -> bool) ->
  Rr_wdm.Network.t ->
  Rr_wdm.Auxiliary.t ->
  source:int ->
  target:int ->
  (detail, Types.blocked) result
(** The pipeline body on a given [G′] of [net] for this request:
    Suurballe from [s′] to [t″] over the arcs [enabled] admits (all, by
    default), induce, refine both paths, serve the cheaper as primary.
    [Error No_disjoint_pair] when Suurballe finds no two edge-disjoint
    paths; [Error No_wavelength] when a refinement finds no semilightpath
    in its induced subgraph (a degenerate converter configuration with no
    consistent wavelength chain — impossible under the paper's
    full-switching assumption (i)).  The workspace is shared by the
    Suurballe passes and the layered refinements.

    {!route_detailed} calls it on an {!Rr_wdm.Aux_cache.gprime_view}.
    Called on a from-scratch {!Rr_wdm.Auxiliary.gprime} it is the
    oracle the cache is checked against (rr_check [auxcache], the
    aux-engine bench gate) and the paper's per-request construction that
    THM-1 times; both give byte-identical results.

    With [?obs] it records the [stage.disjoint_pair], [stage.induce] and
    [stage.refine] spans and a [refine.nonsimple] counter for layered
    walks screened out for revisiting a physical link.  It counts no
    blocking cause: {!Router.route} counts the returned one. *)

val route_detailed :
  workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Aux_cache.t ->
  source:int ->
  target:int ->
  (detail, Types.blocked) result
(** The production pipeline on the cache's network: {!Rr_wdm.Aux_cache.sync}
    (a [stage.aux_delta] span), then {!route_on} over the cache's [G′]
    view.  Exposes the intermediate quantities that the Lemma 2 and
    Theorem 2 experiments report. *)

val route :
  workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Aux_cache.t ->
  source:int ->
  target:int ->
  (Types.solution, Types.blocked) result
(** {!route_detailed}'s solution. *)
