(** Section 4.1 — two edge-disjoint semilightpaths minimising the network
    load ([Find_Two_Paths_MinCog]).

    Candidate load thresholds [ϑ] range over
    [ϑ_min = min_e (U(e)+1)/N(e)] to [ϑ_max = max_e (U(e)+1)/N(e)].  The
    published pseudo-code's index arithmetic is internally inconsistent
    (decrementing [j] grows [Δ/2ʲ] without bound); we implement the search
    it evidently intends — geometrically growing increments above [ϑ_min]:
    try [ϑ_min], then [ϑ_min + Δ/2ᵏ] for [k = K−1, …, 0] and accept the
    first feasible threshold — which is what yields Theorem 3's factor-3
    guarantee.  {!min_bottleneck} computes the true optimum (smallest
    achievable maximum link load over the chosen pair) by binary search on
    the realised load levels, as the reference for the THM-3 ratio
    experiment. *)

type result = {
  theta : float;              (** the accepted threshold *)
  bottleneck : float;         (** max link load ρ(e) over both chosen paths *)
  solution : Types.solution;
}

val route :
  ?base:float ->
  workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Aux_cache.t ->
  source:int ->
  target:int ->
  (result, Types.blocked) Stdlib.result
(** The paper's algorithm on the cache's network, with the exponential
    congestion weights [a^((U+1)/N) − a^(U/N)] ([base] = a, default 16).
    Syncs the cache once, then serves every threshold of {!thresholds},
    in order, from its [G_c] view.  [Error No_disjoint_pair] when even
    [ϑ_max] admits no refinable pair. *)

val thresholds : Rr_wdm.Network.t -> float list
(** The thresholds {!route} tries, in order: [ϑ_min], then
    [ϑ_min + Δ/2ᵏ] for [k = 9, 8, …, 0] (K = 10); just [ϑ_max] when
    every residual link has the same load ratio. *)

val min_bottleneck :
  workspace:Rr_util.Workspace.t ->
  Rr_wdm.Aux_cache.t ->
  source:int ->
  target:int ->
  (float * Types.solution) option
(** Exact minimum of the pair's maximum link load, with a witness pair. *)

val theta_bounds : Rr_wdm.Network.t -> float * float
(** (ϑ_min, ϑ_max) over links still in the residual network. *)
