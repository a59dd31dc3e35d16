(** Discrete-event simulation of dynamic robust routing (the synthetic
    evaluation substrate — see DESIGN.md §2).

    Requests arrive by a Poisson process, hold exponentially, and are
    routed by the configured policy on the live residual network; admitted
    connections reserve the wavelengths of both their primary and backup
    paths ("activate" protection).  Optional failure injection exercises
    restoration — single fibre cuts ([failure_rate] pooled, or
    [link_fail_rates] per link), whole-node outages ([node_failure_rate],
    which only node-disjoint backups survive), shared-risk-group cuts
    ([srlg]: one backhoe takes the whole conduit) and regional outages
    ([regional]: every node within a hop radius of a random centre, and
    every incident fibre, fails atomically).

    Live connections are held in one {!Robust_routing.Connections} book,
    and restoration is its failure pass (probes [restore.attempt] /
    [restore.ok] / [restore.dropped] and the [journal.restore.*] events),
    over the connections in admission order:

    - a connection with a failed endpoint is dropped (an endpoint loss);
    - a connection whose *active* path is hit switches to its reserved
      protection when intact — the full backup, or the covering segment
      detour under partial protection — else it releases everything and
      attempts a fresh route under its own class's policy (passive
      restoration, incremental through the run's shared
      {!Rr_wdm.Aux_cache}); if that also fails the connection drops;
    - a connection whose reserved protection is hit keeps running; the
      reservation becomes usable again after repair;
    - with [reprovision_backup], a connection that consumed its
      protection immediately tries to reserve a fresh full backup
      disjoint from its new working path.

    With [partial_protection], protected classes route through
    {!Robust_routing.Partial_protect}: detours are reserved only for the
    failure-exposed sub-segments of the primary, falling back to the full
    edge-disjoint pair when segmentation does not pay.

    A *reconfiguration* is counted whenever an admission pushes the network
    load past [reconfig_threshold] from below (the trigger the paper argues
    load-aware routing avoids; see DESIGN.md §4). *)

type config = {
  policy : Robust_routing.Router.policy;
  workload : Workload.model;
  duration : float;
  seed : int;
  failure_rate : float;       (** link failures per unit time; 0 disables *)
  node_failure_rate : float;  (** node outages per unit time; 0 disables *)
  repair_time : float;        (** constant repair delay *)
  reconfig_threshold : float;
  reprovision_backup : bool;
  hotspots : (int list * float) option;
      (** optional non-uniform traffic: (hotspot nodes, bias) *)
  batching : (float * Robust_routing.Batch.order) option;
      (** Section 2's periodic discipline: accumulate arrivals and admit
          them in batches every [interval] time units, in the given order.
          [None] (default) admits immediately on arrival. *)
  warmup : float;
      (** arrivals before this time still load the network but are not
          counted in the blocking statistics (transient removal; default
          0). *)
  class_mix : (float * float) option;
      (** Service classes: [(premium, best_effort)] arrival fractions
          (remainder is standard).  Premium and standard requests are
          protected; best-effort requests route unprotected (failure-time
          re-routes too) and may be *preempted* by blocked premium
          arrivals (they then try an immediate re-route, else they are
          lost).  [None] (default) makes every request standard. *)
  link_fail_rates : float array option;
      (** independent per-link exponential failure rates (length =
          [n_links]; a rate of 0 hardens the link); composes with the
          pooled [failure_rate].  Each link keeps one outstanding failure
          clock; rings on a link that is already down are censored. *)
  link_repair_rates : float array option;
      (** per-link exponential repair rates (mean time to repair = 1/rate;
          a rate of 0 falls back to the constant [repair_time]).  [None]
          repairs every failure after the constant [repair_time]. *)
  srlg : (Robust_routing.Srlg.groups * float) option;
      (** shared-risk groups and the cut rate: each event picks a group
          uniformly and fails every live member atomically
          ([journal.srlg.fail], a=group id). *)
  regional : (float * int) option;
      (** [(rate, radius)]: each event picks a centre node uniformly and
          fails every node within [radius] hops — and every incident
          fibre — atomically ([journal.region.fail], a=centre,
          b=radius).  Connections with an endpoint in the ball are lost
          outright. *)
  partial_protection : Robust_routing.Partial_protect.exposure option;
      (** route protected classes through partial path protection against
          this exposure instead of [Router.admit_result].  Best-effort traffic
          stays unprotected. *)
}

type service_class = Premium | Standard | Best_effort

val class_name : service_class -> string

val default_config : Robust_routing.Router.policy -> Workload.model -> config
(** duration 1000, seed 42, no failures (pooled, per-link, SRLG or
    regional), threshold 0.9, no re-provisioning, full protection. *)

type class_stats = {
  cls : service_class;
  cls_offered : int;
  cls_blocked : int;
}

type report = {
  counters : Metrics.counters;
  mean_load : float;        (** time-averaged network load ρ *)
  peak_load : float;
  load_trace : (float * float) list;
  dropped : int;            (** connections lost to failures or preemption *)
  completed : int;          (** connections that departed normally *)
  node_failures : int;
  srlg_failures : int;      (** group cuts that felled at least one link *)
  regional_failures : int;  (** regional outages that felled at least one link *)
  backups_reprovisioned : int;
  class_stats : class_stats list;  (** classes that saw traffic *)
  preemptions : int;        (** best-effort evictions by premium traffic *)
  preempted_lost : int;     (** evictions that could not re-route *)
  carried_time : float;
      (** Erlang-time actually served to counted connections: full holding
          times of departures, partial times of drops, time-to-horizon of
          connections still up at the end. *)
  lost_time : float;
      (** Erlang-time promised to counted connections but lost to drops
          (the scheduled remainder at drop time) — the dropped-Erlang
          numerator. *)
  availability : float;
      (** [carried / (carried + lost)]; 1 when no counted connection was
          admitted. *)
  backup_hops_reserved : int;
      (** total backup wavelength-links reserved at admission time across
          counted connections — full backups and partial detours alike;
          the protection-capacity axis of the survivability bench. *)
}

val run : ?obs:Rr_obs.Obs.t -> Rr_wdm.Network.t -> config -> report
(** Runs on a private copy of the network (the argument is not mutated).
    One {!Robust_routing.Router.ctx} — its {!Rr_wdm.Aux_cache} and its
    {!Rr_util.Workspace} — serves every routing call of the run — admissions, partial protection,
    restoration and preemption — so no search allocates its scratch
    state ([workspace.miss] stays 0).

    With [?obs] every event handler records a span ([sim.arrival],
    [sim.epoch], [sim.departure], [sim.fail_link], [sim.fail_node],
    [sim.fail_srlg], [sim.fail_region], [sim.repair]) and the context is
    threaded through every routing, admission and restoration call.  In a
    failure-free run without service classes, the books balance exactly:
    [admit.ok] equals the report's [counters.admitted] and
    [admit.blocked] equals [counters.blocked] (with failures or
    preemption, restoration re-routes and preemption retries also pass
    through admission, so [admit.*] additionally counts those). *)
