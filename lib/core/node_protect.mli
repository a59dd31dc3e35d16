(** Node-failure-tolerant routing (extension beyond the paper).

    Edge-disjoint backup paths survive any single *link* failure, but both
    paths may still die with one *node* (e.g. an optical cross-connect
    outage).  This variant finds two semilightpaths that are internally
    node-disjoint, via the gated auxiliary graph
    ({!Rr_wdm.Auxiliary.gprime_gated}) and the same
    Suurballe-plus-refinement pipeline as Section 3.3.

    It is the one policy that still builds its auxiliary graph from
    scratch per request ([stage.aux_graph]): {!Rr_wdm.Aux_cache} has no
    gated view, and no workload routes node protection. *)

val route :
  workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  source:int ->
  target:int ->
  (Types.solution, Types.blocked) result
(** Refused when no internally node-disjoint pair of semilightpaths
    exists in the residual network: [Error No_disjoint_pair] when the
    gated auxiliary graph has no disjoint pair, [Error No_wavelength]
    when a refinement fails.  Returned paths are also edge-disjoint (node
    disjointness implies it). *)

val node_disjoint : Rr_wdm.Network.t -> Types.solution -> bool
(** Check that a solution's paths share no internal node — exported for
    tests and audits. *)
