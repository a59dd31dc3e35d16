(** Partial path protection (Yang et al., "LP Relaxations for RWA with
    Partial Path Protection").

    The paper's policies reserve a full edge-disjoint backup for every
    connection.  When only some links are failure-exposed (hardened
    conduits, buried metro spans, an SRLG risk model), that over-provisions:
    a backup is only needed for the sub-segments of the primary that can
    actually fail.  This policy routes the unprotected optimum, carves its
    failure-exposed hops into maximal runs, and reserves one detour per run
    — falling back to the classic full edge-disjoint pair whenever
    segmentation does not pay (strictly fewer backup wavelength-links) or
    cannot cover every exposed run.

    Before each detour search a hop bound checks that the plan can still
    pay: when the hops already reserved plus a BFS lower bound for every
    remaining exposed run reach the full backup's hop count, the plan is
    dropped without searching (see {!detour_hop_bound}); the outcome is
    the one running it out would give.

    Probes: [survive.partial.segmented] / [survive.partial.full_fallback]
    count which branch admitted; [survive.partial.hop_bound] counts plans
    the hop bound dropped (each also falls back); [survive.splice] counts failure-time
    segment switches ({!restore_segments}), mirrored by the
    [journal.survive.splice] event (a=source, b=target). *)

type exposure =
  | All  (** every link can fail — full protection semantics *)
  | Only of Rr_util.Bitset.t
      (** only the marked links can fail; hops on other links need no
          protection *)

type segment = {
  seg_lo : int;  (** first protected hop index of the primary, inclusive *)
  seg_hi : int;  (** last protected hop index, inclusive *)
  seg_detour : Rr_wdm.Semilightpath.t;
      (** reserved detour from the node entering hop [seg_lo] to the node
          leaving hop [seg_hi]; edge-disjoint from the whole primary *)
}

type protection =
  | Unprotected
  | Full of Rr_wdm.Semilightpath.t
      (** classic edge-disjoint backup (the fallback) *)
  | Segments of segment list
      (** one detour per exposed run, ascending by [seg_lo]; [[]] means
          the primary has no failure-exposed hop and needs no backup *)

val paths : protection -> Rr_wdm.Semilightpath.t list
(** The reserved paths: the backup or the detours, in order. *)

val backup_hops : protection -> int
(** Reserved backup wavelength-links — the quantity the bench's
    survivability gate compares across policies. *)

val cost : Rr_wdm.Network.t -> protection -> float
(** Eq. 1 cost of the reserved protection paths (0 when unprotected). *)

val exposure_of_rates : float array -> exposure
(** [Only] of the links with a positive failure rate ([All] if every rate
    is positive). *)

val detour_hop_bound :
  Rr_wdm.Network.t -> link_enabled:(int -> bool) -> source:int -> target:int -> int
(** [detour_hop_bound net ~link_enabled ~source ~target]: the BFS hop
    distance from [source] to [target] over the links that pass
    [link_enabled] and {!Rr_wdm.Network.has_available} — a lower bound on
    the hops of any semilightpath {!Rr_wdm.Layered.optimal} can return
    under the same filter.  [max_int] when [target] is unreachable or
    equals [source]. *)

val admit :
  ?obs:Rr_obs.Obs.t ->
  exposure:exposure ->
  Router.ctx ->
  source:int ->
  target:int ->
  (Rr_wdm.Semilightpath.t * protection) option
(** Route and allocate a primary plus its partial protection on the
    context's network.  Chooses
    [Segments] when every exposed run got a valid detour and the total
    detour length beats the full backup strictly; otherwise allocates the
    full edge-disjoint pair; [None] when neither is feasible (the
    connection would be unprotectable against its exposure). *)

val splice : Rr_wdm.Semilightpath.t -> segment -> Rr_wdm.Semilightpath.t
(** The primary with hops [seg_lo..seg_hi] replaced by the detour — the
    working path after a segment switch.  Pure hop-list surgery. *)

val restore_segments :
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  primary:Rr_wdm.Semilightpath.t ->
  segments:segment list ->
  Rr_wdm.Semilightpath.t option
(** Failure-time segment switch.  Precondition: the primary and every
    detour are still allocated; failed links are flagged on [net].  When
    every failed primary hop lies inside one segment whose detour is
    intact and the spliced path validates, releases the replaced hops and
    the other segments' detours and returns the spliced working path
    (running unprotected — the caller decides whether to re-provision).
    Returns [None] — releasing nothing — when the failure pattern is not
    coverable; the caller re-routes ({!Connections.fail}). *)
