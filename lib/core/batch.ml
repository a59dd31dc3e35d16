module Net = Rr_wdm.Network
module Obs = Rr_obs.Obs
module Bitset = Rr_util.Bitset

type order =
  | Fifo
  | Shortest_first
  | Longest_first
  | Random of int

type outcome = {
  request : Types.request;
  solution : Types.solution option;
}

type result = {
  outcomes : outcome list;
  admitted : int;
  dropped : int;
  total_cost : float;
  final_load : float;
}

let order_name = function
  | Fifo -> "fifo"
  | Shortest_first -> "shortest-first"
  | Longest_first -> "longest-first"
  | Random _ -> "random"

let arrange net order requests =
  match order with
  | Fifo -> requests
  | Shortest_first | Longest_first ->
    (* One BFS per distinct source, not per request: batch workloads
       typically repeat sources, and each BFS is O(n + m). *)
    let trees = Hashtbl.create 8 in
    let dist_from src =
      match Hashtbl.find_opt trees src with
      | Some d -> d
      | None ->
        let d =
          Rr_graph.Traversal.bfs_dist
            ~enabled:(fun e -> Net.has_available net e)
            (Net.graph net) ~source:src
        in
        Hashtbl.add trees src d;
        d
    in
    let keyed =
      List.map
        (fun r ->
          let d = dist_from r.Types.src in
          let h =
            if r.Types.dst >= 0 && r.Types.dst < Array.length d then
              d.(r.Types.dst)
            else -1
          in
          ((if h < 0 then max_int else h), r))
        requests
    in
    let cmp (a, _) (b, _) =
      match order with Longest_first -> compare b a | _ -> compare a b
    in
    List.map snd (List.stable_sort cmp keyed)
  | Random seed ->
    let arr = Array.of_list requests in
    Rr_util.Rng.shuffle (Rr_util.Rng.create seed) arr;
    Array.to_list arr

let valid net req =
  let n = Net.n_nodes net in
  req.Types.src >= 0 && req.Types.src < n && req.Types.dst >= 0
  && req.Types.dst < n && req.Types.src <> req.Types.dst

let process ?(order = Fifo) ?obs net policy requests =
  let ordered = arrange net order requests in
  (* One admission context for the whole sequential sweep: each
     admission's sync recomputes only the links the previous allocation
     touched. *)
  let ctx = Router.context net in
  let total = ref 0.0 in
  let outcomes =
    (* Request ids are batch positions: stage spans and journal events
       recorded during admission i are attributable to [ordered]'s i-th
       request. *)
    List.mapi
      (fun i req ->
        let solution =
          if valid net req then
            Result.to_option
              (Router.admit_result ?obs ~req:i ctx policy ~source:req.Types.src
                 ~target:req.Types.dst)
          else None
        in
        (* Cost snapshot at the admission point: later admissions mutate
           the network, and the sum must be over each solution's cost as
           admitted. *)
        (match solution with
        | Some sol -> total := !total +. Types.total_cost net sol
        | None -> ());
        { request = req; solution })
      ordered
  in
  let admitted = List.length (List.filter (fun o -> Option.is_some o.solution) outcomes) in
  {
    outcomes;
    admitted;
    dropped = List.length outcomes - admitted;
    total_cost = !total;
    final_load = Net.network_load net;
  }

(* ------------------------------------------------------------------ *)
(* Speculative two-phase batch engine.

   Phase A routes every request read-only against a snapshot of the
   network as it stood when the batch arrived — requests do not see each
   other, so the phase parallelises perfectly.  Phase B commits the batch
   in order on the live network with the exact semantics of a sequential
   in-order walk (validate each speculative solution, allocate it if it
   still holds, recompute it on the live network otherwise); see [apply]
   for how that walk is itself parallelised without changing its
   meaning.  A request that found no route against the snapshot is
   dropped outright — admissions only consume resources, so a request
   infeasible on the snapshot is also infeasible on the live network.

   Phase B never depends on how Phase A was executed, so [route] and
   [route_parallel] produce identical results by construction. *)

(* [req] is the request's batch position: phase-A spans carry it so a
   request's speculation is attributable even after the worker forks are
   merged (ids survive [Obs.merge]). *)
let speculate_one ?(obs = Obs.null) ?req ctx policy rq =
  (match req with Some id -> Obs.set_request obs id | None -> ());
  let result =
    if valid (Router.network ctx) rq then
      Result.to_option
        (Router.route ~obs ctx policy ~source:rq.Types.src ~target:rq.Types.dst)
    else None
  in
  (match req with Some _ -> Obs.clear_request obs | None -> ());
  result

(* ------------------------------------------------------------------ *)
(* Pool-resident worker shards.

   A shard is one worker's complete speculation state: an admission
   context on a private network snapshot.  Building one costs a deep
   network copy plus a full [Aux_cache.create] — orders of magnitude more
   than routing a single request — so shards live in the pool's typed state slots and survive
   across [route_parallel] calls.  Reacquiring a shard for the same live
   network only replays the residual-state delta (per-link bitset diff,
   then an [Aux_cache.sync] that recomputes the touched links); a shard
   bound to a different network is rebuilt from scratch. *)

type shard = {
  ctx : Router.ctx;  (* on a worker-private snapshot *)
  live : Net.t;      (* the live network mirrored *)
}

let shard_slot : shard Parallel.slot = Parallel.slot ()

let fresh_shard live = { ctx = Router.context (Net.copy live); live }

(* Replay the live network's residual state onto the snapshot link by
   link: releases for wavelengths freed since the last sync, allocations
   for ones consumed, failure flags last (a link failed on both sides can
   still have drifted usage — repair, patch, re-fail). *)
let resync_shard sh =
  let live = sh.live and snap = Router.network sh.ctx in
  for e = 0 to Net.n_links live - 1 do
    let live_failed = Net.is_failed live e in
    let ul = Net.used live e and us = Net.used snap e in
    let drifted = (ul != us) && not (Bitset.equal ul us) in
    if Net.is_failed snap e && (drifted || not live_failed) then
      Net.repair_link snap e;
    if drifted then begin
      Bitset.iter (fun l -> Net.release snap e l) (Bitset.diff us ul);
      Bitset.iter (fun l -> Net.allocate snap e l) (Bitset.diff ul us)
    end;
    if live_failed && not (Net.is_failed snap e) then Net.fail_link snap e
  done;
  ignore (Rr_wdm.Aux_cache.sync (Router.cache sh.ctx) : Rr_wdm.Aux_cache.sync_stats)

let shard_for pool live w =
  match Parallel.get_state pool shard_slot ~worker:w with
  | Some sh when sh.live == live ->
    resync_shard sh;
    sh
  | _ ->
    let sh = fresh_shard live in
    Parallel.set_state pool shard_slot ~worker:w sh;
    sh

(* ------------------------------------------------------------------ *)
(* Phase B: optimistic commit with exact sequential semantics.

   The sequential walk admits solution [i] iff it validates against the
   live network *after* solutions [0..i-1] were handled.  Because
   [Types.validate]'s only residual-state dependence is per-hop
   wavelength availability, that verdict factors exactly:

     valid at turn i  <=>  valid against the network as of the round
                           start  AND  no hop (link, λ) was virtually
                           taken by an earlier still-valid solution.

   So each round shadow-validates the remaining suffix in order against
   the un-mutated network plus a [taken] set of virtually-allocated
   hops, stopping at the first index [k] that fails.  Solutions before
   [k] are exactly the ones the sequential walk would have admitted
   as-is; they are link-disjoint from each other in conflict groups, so
   they can be allocated in any order — including concurrently — without
   changing the final residual state ([Network.allocate] touches only
   the link's own slot).  Index [k] is then handled sequentially (its
   re-route may consume arbitrary links), and the next round restarts
   after it.  A batch whose speculations all hold commits in one round
   with zero sequential steps. *)

let commit_prefix ?pool ~obs net specs (sols : Types.solution option array)
    (costs : float array) lo hi =
  (* Committable members of [lo, hi) — indices carrying a solution. *)
  let members =
    List.filter (fun i -> Option.is_some specs.(i))
      (List.init (hi - lo) (fun k -> lo + k))
  in
  match members with
  | [] -> ()
  | _ ->
    let marr = Array.of_list members in
    let nm = Array.length marr in
    (* Conflict graph: two solutions conflict iff their footprints share
       a physical link.  Union-find over member positions, keyed by the
       first member seen on each link. *)
    let uf = Rr_util.Union_find.create nm in
    let link_owner = Hashtbl.create 64 in
    Array.iteri
      (fun mi i ->
        List.iter
          (fun (e, _) ->
            match Hashtbl.find_opt link_owner e with
            | None -> Hashtbl.replace link_owner e mi
            | Some mj -> ignore (Rr_util.Union_find.union uf mi mj : bool))
          (Router.footprint (Option.get specs.(i))))
      marr;
    (* Components in first-member order, members ascending inside. *)
    let comp_tbl = Hashtbl.create 16 in
    let comps_rev = ref [] in
    Array.iteri
      (fun mi i ->
        let r = Rr_util.Union_find.find uf mi in
        match Hashtbl.find_opt comp_tbl r with
        | Some cell -> cell := i :: !cell
        | None ->
          let cell = ref [ i ] in
          Hashtbl.replace comp_tbl r cell;
          comps_rev := cell :: !comps_rev)
      marr;
    let components =
      List.rev_map (fun cell -> List.rev !cell) !comps_rev
    in
    let multi =
      List.length (List.filter (fun c -> List.length c > 1) components)
    in
    Obs.add obs "batch.conflict.components" multi;
    Obs.add obs "batch.conflict.parallel_commits" nm;
    let commit_component c =
      List.iter
        (fun i ->
          let sol = Option.get specs.(i) in
          Types.allocate net sol;
          (* Cost snapshot at the allocation point (costs are functions
             of immutable link weights, so this equals — bit for bit —
             what a sequential walk would have recorded). *)
          costs.(i) <- Types.total_cost net sol;
          sols.(i) <- Some sol)
        c
    in
    (* Components are pairwise link-disjoint, so allocations from
       different components write disjoint [used] slots: committing them
       concurrently is race-free and order-independent. *)
    (match pool with
    | Some p when Parallel.size p > 1 && List.length components > 1 ->
      let carr = Array.of_list components in
      ignore
        (Parallel.map p
           ~worker:(fun _ -> ())
           ~f:(fun () c ->
             commit_component c;
             0)
           carr
          : int array)
    | _ -> List.iter commit_component components)

let apply ?pool ?(obs = Obs.null) net policy ordered speculative =
  let reqs = Array.of_list ordered in
  let specs = Array.of_list speculative in
  let n = Array.length reqs in
  if Array.length specs <> n then
    invalid_arg "Batch.apply: request/speculation length mismatch";
  let sols : Types.solution option array = Array.make n None in
  let costs = Array.make n 0.0 in
  (* The live-network context is only needed on the slow path (a
     speculative solution invalidated by an earlier admission), so build
     it lazily: batches whose speculations all hold never pay for it. *)
  let ctx = lazy (Router.context net) in
  let nw = Net.n_wavelengths net in
  let taken = Hashtbl.create 64 in
  let t_commit = Obs.start obs in
  let start = ref 0 in
  while !start < n do
    (* Shadow-validate [start, n) in order against the current live
       state plus the hops virtually taken this round. *)
    Hashtbl.clear taken;
    let first_fail = ref (-1) in
    let i = ref !start in
    while !i < n && !first_fail < 0 do
      (match specs.(!i) with
      | None -> ()
      | Some sol ->
        let fp = Router.footprint sol in
        let ok =
          List.for_all (fun (e, l) -> not (Hashtbl.mem taken ((e * nw) + l))) fp
          && (match Types.validate net reqs.(!i) sol with
             | Ok () -> true
             | Error _ -> false)
        in
        if ok then
          List.iter (fun (e, l) -> Hashtbl.replace taken ((e * nw) + l) ()) fp
        else first_fail := !i);
      incr i
    done;
    let stop = if !first_fail < 0 then n else !first_fail in
    commit_prefix ?pool ~obs net specs sols costs !start stop;
    if !first_fail < 0 then start := n
    else begin
      (* The sequential step: exactly the turn-[k] body of the in-order
         walk.  Its speculative solution no longer validates (a hop it
         needs was consumed — by an earlier round or this one's prefix),
         so it is recomputed against the live network. *)
      let k = !first_fail in
      (match specs.(k) with
      | None -> ()
      | Some sol -> (
        match Types.validate net reqs.(k) sol with
        | Ok () ->
          Types.allocate net sol;
          costs.(k) <- Types.total_cost net sol;
          sols.(k) <- Some sol
        | Error _ ->
          Obs.add obs "batch.conflict.fallbacks" 1;
          Obs.event obs ~a:k "journal.batch.fallback";
          let re =
            Result.to_option
              (Router.admit_result ~obs ~req:k (Lazy.force ctx) policy
                 ~source:reqs.(k).Types.src ~target:reqs.(k).Types.dst)
          in
          (match re with
          | Some sol' -> costs.(k) <- Types.total_cost net sol'
          | None -> ());
          sols.(k) <- re));
      start := k + 1
    end
  done;
  Obs.stop obs "stage.commit" t_commit;
  let outcomes =
    List.init n (fun i -> { request = reqs.(i); solution = sols.(i) })
  in
  let admitted = ref 0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    match sols.(i) with
    | Some _ ->
      incr admitted;
      total := !total +. costs.(i)
    | None -> ()
  done;
  {
    outcomes;
    admitted = !admitted;
    dropped = n - !admitted;
    total_cost = !total;
    final_load = Net.network_load net;
  }

let route ?(order = Fifo) ?obs net policy requests =
  let ordered = arrange net order requests in
  let ctx = Router.context (Net.copy net) in
  let speculative =
    List.mapi (fun i req -> speculate_one ?obs ~req:i ctx policy req) ordered
  in
  apply ?obs net policy ordered speculative

let route_parallel ?(order = Fifo) ?pool ?jobs ?(obs = Obs.null) net policy
    requests =
  let ordered = arrange net order requests in
  let run_with p =
    let size = Parallel.size p in
    (* Each worker records into a private fork (tid = worker index + 1,
       the parent keeping tid 0); the forks are merged back in worker
       order after the join, so the combined registry is independent of
       how the scheduler interleaved requests across workers.  All metric
       merges are integer sums/maxes, so merged totals equal a sequential
       run's. *)
    let forks =
      if Obs.enabled obs then
        Array.init size (fun i -> Obs.fork obs ~tid:(i + 1))
      else Array.make size Obs.null
    in
    let reqs = Array.of_list (List.mapi (fun i req -> (i, req)) ordered) in
    let speculative =
      Parallel.map p
        ~worker:(fun i -> (shard_for p net i, forks.(i)))
        ~f:(fun (sh, fork) (i, req) ->
          speculate_one ~obs:fork ~req:i sh.ctx policy req)
        reqs
    in
    if Obs.enabled obs then Array.iter (fun f -> Obs.merge ~into:obs f) forks;
    apply ~pool:p ~obs net policy ordered (Array.to_list speculative)
  in
  match pool with
  | Some p -> run_with p
  | None ->
    let jobs =
      match jobs with Some j -> j | None -> Parallel.default_jobs ()
    in
    if jobs < 1 then
      invalid_arg "Batch.route_parallel: jobs must be at least 1";
    Parallel.with_pool ~obs ~jobs run_with
