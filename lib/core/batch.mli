(** Periodic batch admission (Section 2).

    "The network accepts user connection requests periodically.  At a given
    time interval, suppose a set of requests is given.  The algorithm
    processes these requests one by one.  Once a request is processed and
    there is a solution for it, the algorithm establishes the routes for it
    immediately.  Otherwise, the request is dropped."

    Because each admission consumes wavelengths, the *order* in which a
    batch is processed changes which later requests fit; this module
    implements the paper's sequential discipline plus standard orderings
    to quantify that effect. *)

type order =
  | Fifo            (** as given — the paper's discipline *)
  | Shortest_first  (** ascending hop distance (cheap requests first) *)
  | Longest_first   (** descending hop distance *)
  | Random of int   (** seeded shuffle *)

type outcome = {
  request : Types.request;
  solution : Types.solution option;  (** [None] = dropped *)
}

type result = {
  outcomes : outcome list;  (** in processing order *)
  admitted : int;
  dropped : int;
  total_cost : float;       (** over admitted requests *)
  final_load : float;       (** network load after the batch *)
}

val process :
  ?order:order ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  Router.policy ->
  Types.request list ->
  result
(** Routes and allocates each request in turn on the live network (the
    network is mutated, as in operation).  Invalid requests
    ([src = dst] or out of range) are dropped rather than raising. *)

val order_name : order -> string

val arrange :
  Rr_wdm.Network.t -> order -> Types.request list -> Types.request list
(** The processing order {!process} would use, without admitting anything
    (hop distances are measured on the current residual network, with one
    BFS per distinct source). *)

val route :
  ?order:order ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  Router.policy ->
  Types.request list ->
  result
(** Speculative two-phase batch discipline.  Phase A routes every request
    read-only against a snapshot of the network at batch entry; phase B
    commits them in order on the live network, re-validating each
    speculative solution and recomputing it only when an earlier admission
    invalidated it.  Requests with no route against the snapshot are
    dropped without a retry (admissions only consume resources).  Differs
    from {!process} when a request's best route *changes* due to an
    earlier admission without becoming invalid — {!process} sees the
    updated residual network for every request, {!route} only for the
    recomputed ones.

    Phase B is implemented as an optimistic grouped commit with exact
    in-order semantics: each round shadow-validates the remaining batch
    against the live state plus the hops virtually taken by earlier
    still-valid solutions, commits the maximal valid prefix (grouped into
    link-disjoint conflict components), and handles the first failing
    index with the literal sequential step (re-route on the live
    network).  The admitted set, every solution, every cost and the final
    residual state are identical to a plain sequential walk.  Commit
    activity is observable via the [batch.conflict.*] counters and the
    [stage.commit] span. *)

val route_parallel :
  ?order:order ->
  ?pool:Parallel.t ->
  ?jobs:int ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  Router.policy ->
  Types.request list ->
  result
(** {!route} with phase A fanned out over a {!Parallel} domain pool and
    phase B's link-disjoint conflict components committed concurrently;
    both phases preserve the sequential semantics exactly, so the result
    is byte-identical to {!route} for every [jobs].  Pass [pool] to reuse
    long-lived workers across batches ([jobs] is then ignored); otherwise
    a pool of [jobs] (default {!Parallel.default_jobs}, clamped as
    {!Parallel.create} documents) is created for the call.

    {b Shard reuse.}  Each worker's speculation state — a
    {!Router.ctx} on a private network snapshot — lives
    in the pool's typed state slots and survives across calls.  Passing
    the same [pool] and the same live network again only replays the
    residual-state delta onto each shard (per-link bitset diff plus an
    incremental cache sync) instead of re-copying the network and
    rebuilding the auxiliary graph per call; a pool last used against a
    different network rebuilds its shards transparently.  Routing against
    a resynced shard is byte-identical to routing against a fresh
    snapshot (the {!Rr_wdm.Aux_cache} identity contract).

    With [?obs], each phase-A worker records into a private fork of the
    context ([tid] = worker index + 1) and the forks are merged back in
    worker order at the join — all merges are integer sums/maxes, so
    counter totals are deterministic and equal to a sequential {!route}
    run's regardless of [jobs].  (Exception: [parallel.oversubscribed]
    records a host-dependent clamp and is excluded from cross-[jobs]
    comparisons.) *)
