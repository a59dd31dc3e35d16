module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath
module Obs = Rr_obs.Obs
module Router = Robust_routing.Router
module Types = Robust_routing.Types
module Book = Robust_routing.Connections
module Protect = Robust_routing.Partial_protect
module Rng = Rr_util.Rng

let log_src = Logs.Src.create "rr.sim" ~doc:"robust-routing simulator"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  policy : Router.policy;
  workload : Workload.model;
  duration : float;
  seed : int;
  failure_rate : float;
  node_failure_rate : float;
  repair_time : float;
  reconfig_threshold : float;
  reprovision_backup : bool;
  hotspots : (int list * float) option;
  batching : (float * Robust_routing.Batch.order) option;
  warmup : float;
  class_mix : (float * float) option;
  link_fail_rates : float array option;
  link_repair_rates : float array option;
  srlg : (Robust_routing.Srlg.groups * float) option;
  regional : (float * int) option;
  partial_protection : Protect.exposure option;
}

type service_class = Premium | Standard | Best_effort

let class_name = function
  | Premium -> "premium"
  | Standard -> "standard"
  | Best_effort -> "best-effort"

let default_config policy workload =
  {
    policy;
    workload;
    duration = 1000.0;
    seed = 42;
    failure_rate = 0.0;
    node_failure_rate = 0.0;
    repair_time = 50.0;
    reconfig_threshold = 0.9;
    reprovision_backup = false;
    hotspots = None;
    batching = None;
    warmup = 0.0;
    class_mix = None;
    link_fail_rates = None;
    link_repair_rates = None;
    srlg = None;
    regional = None;
    partial_protection = None;
  }

type class_stats = {
  cls : service_class;
  cls_offered : int;
  cls_blocked : int;
}

type report = {
  counters : Metrics.counters;
  mean_load : float;
  peak_load : float;
  load_trace : (float * float) list;
  dropped : int;
  completed : int;
  node_failures : int;
  srlg_failures : int;
  regional_failures : int;
  backups_reprovisioned : int;
  class_stats : class_stats list;
  preemptions : int;
  preempted_lost : int;
  carried_time : float;
  lost_time : float;
  availability : float;
  backup_hops_reserved : int;
}

(* What the run keeps beside each connection in the book. *)
type held = {
  klass : service_class;
  counted : bool;
  t_admit : float;
  t_depart : float; (* scheduled departure time *)
}

type event =
  | Arrival
  | Epoch
  | Departure of int
  | Fail_link
  | Fail_link_at of int
  | Fail_node
  | Fail_srlg
  | Fail_region
  | Repair_links of int list

let run ?(obs = Obs.null) net0 config =
  if config.duration <= 0.0 then invalid_arg "Simulator.run: duration must be positive";
  let net = Net.copy net0 in
  let n_links = Net.n_links net in
  (match config.link_fail_rates with
   | Some rates when Array.length rates <> n_links ->
     invalid_arg "Simulator.run: link_fail_rates length must equal the link count"
   | Some rates when Array.exists (fun r -> r < 0.0) rates ->
     invalid_arg "Simulator.run: link_fail_rates must be non-negative"
   | Some _ | None -> ());
  (match config.link_repair_rates with
   | Some rates when Array.length rates <> n_links ->
     invalid_arg "Simulator.run: link_repair_rates length must equal the link count"
   | Some rates when Array.exists (fun r -> r < 0.0) rates ->
     invalid_arg "Simulator.run: link_repair_rates must be non-negative"
   | Some _ | None -> ());
  (match config.srlg with
   | Some (groups, _) -> (
     match Robust_routing.Srlg.validate_groups net groups with
     | Ok () -> ()
     | Error m -> invalid_arg ("Simulator.run: " ^ m))
   | None -> ());
  (match config.regional with
   | Some (_, radius) when radius < 0 ->
     invalid_arg "Simulator.run: regional radius must be non-negative"
   | Some _ | None -> ());
  (* Risk groups indexed for the SRLG failure process: (group id, member
     links ascending), groups ascending by id. *)
  let srlg_groups =
    match config.srlg with
    | None -> [||]
    | Some (groups, _) ->
      let tbl = Hashtbl.create 16 in
      Array.iteri
        (fun e gs ->
          List.iter
            (fun g ->
              let cur = Option.value ~default:[] (Hashtbl.find_opt tbl g) in
              Hashtbl.replace tbl g (e :: cur))
            gs)
        groups;
      (* lint: ordered — group ids sorted below *)
      Hashtbl.fold (fun g members acc -> (g, List.sort Int.compare members) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> Array.of_list
  in
  (* Undirected adjacency for the regional node-ball BFS, built in
     ascending link order so the ball is deterministic. *)
  let adjacency =
    match config.regional with
    | None -> [||]
    | Some _ ->
      let adj = Array.make (Net.n_nodes net) [] in
      for e = n_links - 1 downto 0 do
        let u = Net.link_src net e and v = Net.link_dst net e in
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v)
      done;
      adj
  in
  let node_ball center radius =
    let n = Net.n_nodes net in
    let dist = Array.make n (-1) in
    dist.(center) <- 0;
    let queue = Queue.create () in
    Queue.add center queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      if dist.(u) < radius then
        List.iter
          (fun v ->
            if dist.(v) < 0 then begin
              dist.(v) <- dist.(u) + 1;
              Queue.add v queue
            end)
          adjacency.(u)
    done;
    dist
  in
  (* One admission context for the whole run: arrivals, reroutes and
     preemption probes all sync its cache against whatever the event loop
     (departures, failures, repairs) did to the residual state since the
     previous routing call, and its one search workspace serves every
     routing call of the run, which runs on this domain alone. *)
  let ctx = Router.context net in
  let book : held Book.t = Book.create ctx in
  let rng = Rng.create config.seed in
  let q = Event_queue.create () in
  let counters = Metrics.counters () in
  let load_trace = Metrics.trace () in
  let next_id = ref 0 in
  (* Request ids for request-scoped observability: every admission in
     the run — arrivals, batched epochs, restoration re-routes — gets the
     next id, so a blocked admission's spans and journal events are
     attributable to one routing decision. *)
  let next_req = ref 0 in
  let fresh_req () =
    let r = !next_req in
    incr next_req;
    r
  in
  let dropped = ref 0 in
  let completed = ref 0 in
  let node_failures = ref 0 in
  let srlg_failures = ref 0 in
  let regional_failures = ref 0 in
  let backups_reprovisioned = ref 0 in
  let preemptions = ref 0 in
  let preempted_lost = ref 0 in
  let carried_time = ref 0.0 in
  let lost_time = ref 0.0 in
  let backup_hops_reserved = ref 0 in
  let cls_offered = Hashtbl.create 4 and cls_blocked = Hashtbl.create 4 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let draw_class () =
    match config.class_mix with
    | None -> Standard
    | Some (premium, best_effort) ->
      if premium < 0.0 || best_effort < 0.0 || premium +. best_effort > 1.0 then
        invalid_arg "Simulator.run: class_mix fractions must be a sub-distribution";
      let u = Rng.uniform rng in
      if u < premium then Premium
      else if u < premium +. best_effort then Best_effort
      else Standard
  in
  let prev_load = ref 0.0 in
  let observe_load time =
    let rho = Net.network_load net in
    Metrics.observe load_trace ~time rho;
    rho
  in
  let note_admission_load time =
    let rho = observe_load time in
    if !prev_load < config.reconfig_threshold && rho >= config.reconfig_threshold
    then counters.reconfigurations <- counters.reconfigurations + 1;
    prev_load := rho
  in
  let pick_pair () =
    match config.hotspots with
    | None -> Workload.random_pair rng ~n_nodes:(Net.n_nodes net)
    | Some (hotspots, bias) ->
      Workload.hotspot_pair rng ~n_nodes:(Net.n_nodes net) ~hotspots ~bias
  in
  (* Availability bookkeeping (counted connections only): a departure
     carries its whole holding time; a drop carries what ran and loses
     the scheduled remainder. *)
  let note_carried time (c : held Book.conn) =
    if c.data.counted then
      carried_time := !carried_time +. Float.max 0.0 (time -. c.data.t_admit)
  in
  let note_drop time (c : held Book.conn) =
    note_carried time c;
    if c.data.counted then
      lost_time := !lost_time +. Float.max 0.0 (c.data.t_depart -. time)
  in
  (* Per-link exponential repairs when configured (a rate of 0 falls back
     to the constant delay); one repair event per link so staggered
     repairs interleave with failures deterministically. *)
  let schedule_repairs time links =
    match config.link_repair_rates with
    | None ->
      Event_queue.schedule q (time +. config.repair_time) (Repair_links links)
    | Some rates ->
      List.iter
        (fun e ->
          let delay =
            if rates.(e) > 0.0 then Rng.exponential rng rates.(e)
            else config.repair_time
          in
          Event_queue.schedule q (time +. delay) (Repair_links [ e ]))
        (List.sort Int.compare links)
  in
  (* Fail a set of links simultaneously (one fibre cut, a shared conduit,
     every fibre of a failed node or region), then restore affected
     connections through the book, in admission order. *)
  let handle_failure time ~nodes links =
    Log.info (fun m ->
        m "t=%.2f failure of %d link(s)%s" time (List.length links)
          (match nodes with
           | [] -> ""
           | vs ->
             Printf.sprintf " (node%s %s)"
               (if List.length vs > 1 then "s" else "")
               (String.concat "," (List.map string_of_int vs))));
    List.iter
      (fun link ->
        Net.fail_link net link;
        Obs.event obs ~a:link "journal.link.fail")
      links;
    List.iter (fun v -> Obs.event obs ~a:v "journal.node.fail") nodes;
    schedule_repairs time links;
    Book.fail ~obs ~reprovision:config.reprovision_backup ~nodes book ~links
      ~req:fresh_req ~on:(fun c outcome ->
        match outcome with
        | Book.Endpoint_down ->
          (* the endpoint itself is down: no protection scheme can help *)
          incr dropped;
          note_drop time c;
          counters.endpoint_losses <- counters.endpoint_losses + 1
        | Book.Switched -> (
          counters.restorations_ok <- counters.restorations_ok + 1;
          match c.protection with
          | Protect.Full _ -> incr backups_reprovisioned
          | Protect.Unprotected | Protect.Segments _ -> ())
        | Book.Rerouted ->
          counters.passive_reroutes_ok <- counters.passive_reroutes_ok + 1;
          ignore (observe_load time)
        | Book.Dropped ->
          incr dropped;
          note_drop time c;
          counters.restorations_failed <- counters.restorations_failed + 1;
          ignore (observe_load time));
    ignore (observe_load time)
  in
  let live_links () =
    List.filter (fun e -> not (Net.is_failed net e)) (List.init n_links Fun.id)
  in
  let schedule_next rate ev =
    if rate > 0.0 then Event_queue.schedule q (Rng.exponential rng rate) ev
  in
  let reschedule time rate ev =
    if rate > 0.0 then
      Event_queue.schedule q (time +. Rng.exponential rng rate) ev
  in
  let pending_batch : (int * int) list ref = ref [] in
  let policy_for = function
    | Premium | Standard -> config.policy
    | Best_effort -> Router.Unprotected
  in
  (* A connection enters the book (scheduling its departure) before its
     admission is accounted: a preempting premium request holds its
     wavelengths while its victims re-route, and only then samples the
     load. *)
  let record time klass ~counted src dst admission =
    let id = !next_id in
    incr next_id;
    let hold = Workload.holding rng config.workload in
    Event_queue.schedule q (time +. hold) (Departure id);
    Book.add book ~id ~request:{ Types.src; dst } ~policy:(policy_for klass)
      { klass; counted; t_admit = time; t_depart = time +. hold }
      admission
  in
  let account time (c : held Book.conn) =
    if c.data.counted then begin
      counters.admitted <- counters.admitted + 1;
      counters.total_admitted_cost <-
        counters.total_admitted_cost +. Slp.cost net c.working
        +. Protect.cost net c.protection;
      backup_hops_reserved :=
        !backup_hops_reserved + Protect.backup_hops c.protection
    end;
    note_admission_load time
  in
  (* A blocked premium request may evict best-effort connections: evict
     them one at a time (oldest first) and retry; evicted connections try
     an immediate re-route and are otherwise lost. *)
  let try_preempt src dst =
    let best_effort =
      List.filter
        (fun (c : held Book.conn) ->
          match c.data.klass with Best_effort -> true | Premium | Standard -> false)
        (Book.conns book)
    in
    let rec evict evicted = function
      | [] ->
        (* no luck: give evicted connections their resources back *)
        List.iter (Book.reinstate book) evicted;
        None
      | victim :: rest -> (
        Book.evict book victim;
        match
          Router.route ~obs ctx (policy_for Premium) ~source:src ~target:dst
        with
        | Ok sol -> Some (sol, victim :: evicted)
        | Error _ -> evict (victim :: evicted) rest)
    in
    evict [] best_effort
  in
  (* Give each evicted connection a chance to re-route; must run after the
     preempting premium solution has been allocated, so the victims cannot
     steal its wavelengths back. *)
  let settle_evicted time evicted =
    List.iter
      (fun (victim : held Book.conn) ->
        incr preemptions;
        let request = victim.request in
        match
          Router.route ~obs ctx victim.policy ~source:request.src
            ~target:request.dst
        with
        | Ok s when Result.is_ok (Types.validate net request s) ->
          ignore
            (Book.add book ~id:victim.id ~request ~policy:victim.policy
               victim.data (Book.Routed s))
        | _ ->
          incr preempted_lost;
          incr dropped;
          note_drop time victim)
      evicted
  in
  (* Admission shared between immediate arrivals and epoch batches. *)
  let admit_request time src dst =
    let klass = draw_class () in
    (* Transient removal: requests processed before warmup load the
       network but are excluded from the statistics.  All three counters
       (offered / admitted / blocked) are gated at *processing* time so
       the books balance under batched admission, where a request can
       arrive before warmup yet be processed after it. *)
    let counted = time >= config.warmup in
    if counted then begin
      counters.offered <- counters.offered + 1;
      bump cls_offered klass
    end;
    let block () =
      if counted then begin
        counters.blocked <- counters.blocked + 1;
        bump cls_blocked klass
      end
    in
    let partial_exposure =
      match (config.partial_protection, policy_for klass) with
      | Some _, Router.Unprotected -> None (* best effort stays unprotected *)
      | exposure, _ -> exposure
    in
    match partial_exposure with
    | Some exposure -> (
      match
        Protect.admit ~obs ~exposure ctx ~source:src ~target:dst
      with
      | Some (primary, protection) ->
        Log.debug (fun m ->
            m "t=%.2f admit %s %d->%d cost %.1f (partial)" time
              (class_name klass) src dst
              (Slp.cost net primary +. Protect.cost net protection));
        account time
          (record time klass ~counted src dst (Book.Partial (primary, protection)))
      | None -> block ())
    | None -> (
      match
        Router.admit_result ~obs ~req:(fresh_req ()) ctx (policy_for klass)
          ~source:src ~target:dst
      with
      | Ok sol ->
        Log.debug (fun m ->
            m "t=%.2f admit %s %d->%d cost %.1f" time (class_name klass) src dst
              (Types.total_cost net sol));
        account time (record time klass ~counted src dst (Book.Admitted sol))
      | Error _ -> (
        match klass with
        | Premium -> (
          match try_preempt src dst with
          | Some (sol, evicted) ->
            let c = record time klass ~counted src dst (Book.Routed sol) in
            settle_evicted time evicted;
            account time c
          | None -> block ())
        | Standard | Best_effort -> block ()))
  in
  (* Prime the event stream. *)
  Event_queue.schedule q (Workload.interarrival rng config.workload) Arrival;
  (match config.batching with
   | Some (interval, _) when interval > 0.0 -> Event_queue.schedule q interval Epoch
   | Some _ -> invalid_arg "Simulator.run: batching interval must be positive"
   | None -> ());
  schedule_next config.failure_rate Fail_link;
  schedule_next config.node_failure_rate Fail_node;
  (match config.link_fail_rates with
   | None -> ()
   | Some rates ->
     Array.iteri
       (fun e r ->
         if r > 0.0 then
           Event_queue.schedule q (Rng.exponential rng r) (Fail_link_at e))
       rates);
  (match config.srlg with
   | Some (_, rate) -> schedule_next rate Fail_srlg
   | None -> ());
  (match config.regional with
   | Some (rate, _) -> schedule_next rate Fail_region
   | None -> ());
  Metrics.observe load_trace ~time:0.0 (Net.network_load net);
  let finished = ref false in
  while not !finished do
    match Event_queue.next q with
    | None -> finished := true
    | Some (time, _) when time > config.duration -> finished := true
    | Some (time, ev) -> (
      match ev with
      | Arrival ->
        let t0 = Obs.start obs in
        let src, dst = pick_pair () in
        (match config.batching with
         | Some _ -> pending_batch := (src, dst) :: !pending_batch
         | None -> admit_request time src dst);
        Event_queue.schedule q
          (time +. Workload.interarrival rng config.workload)
          Arrival;
        Obs.stop obs "sim.arrival" t0
      | Epoch ->
        let t0 = Obs.start obs in
        (match config.batching with
         | None -> ()
         | Some (interval, order) ->
           (* Section 2: requests accumulated over the period are
              processed one by one, in the configured order. *)
           let requests =
             List.rev_map
               (fun (s, d) -> { Robust_routing.Types.src = s; dst = d })
               !pending_batch
           in
           pending_batch := [];
           let ordered = Robust_routing.Batch.arrange net order requests in
           List.iter
             (fun r ->
               admit_request time r.Robust_routing.Types.src
                 r.Robust_routing.Types.dst)
             ordered;
           Event_queue.schedule q (time +. interval) Epoch);
        Obs.stop obs "sim.epoch" t0
      | Departure id -> (
        let t0 = Obs.start obs in
        match Book.find book id with
        | None -> () (* dropped earlier by a failure or a preemption *)
        | Some c ->
          Book.release book c;
          incr completed;
          note_carried time c;
          prev_load := Net.network_load net;
          ignore (observe_load time);
          Obs.stop obs "sim.departure" t0)
      | Fail_link ->
        let t0 = Obs.start obs in
        (match live_links () with
         | [] -> ()
         | live ->
           counters.failures_injected <- counters.failures_injected + 1;
           handle_failure time ~nodes:[] [ Rng.pick rng (Array.of_list live) ]);
        reschedule time config.failure_rate Fail_link;
        Obs.stop obs "sim.fail_link" t0
      | Fail_link_at e ->
        let t0 = Obs.start obs in
        (* Per-link exponential process: one outstanding clock per link,
           always rearmed; a ring on a link that is already down is
           censored (the next ring comes after its own repair). *)
        (match config.link_fail_rates with
         | Some rates when rates.(e) > 0.0 ->
           if not (Net.is_failed net e) then begin
             counters.failures_injected <- counters.failures_injected + 1;
             handle_failure time ~nodes:[] [ e ]
           end;
           Event_queue.schedule q
             (time +. Rng.exponential rng rates.(e))
             (Fail_link_at e)
         | Some _ | None -> ());
        Obs.stop obs "sim.fail_link" t0
      | Fail_node ->
        let t0 = Obs.start obs in
        (* A node outage takes down every incident fibre at once; only a
           node-disjoint backup survives it. *)
        let v = Rng.int rng (Net.n_nodes net) in
        let incident =
          List.filter
            (fun e ->
              (not (Net.is_failed net e))
              && (Net.link_src net e = v || Net.link_dst net e = v))
            (List.init n_links Fun.id)
        in
        (match incident with
         | [] -> ()
         | _ ->
           incr node_failures;
           counters.failures_injected <- counters.failures_injected + 1;
           handle_failure time ~nodes:[ v ] incident);
        reschedule time config.node_failure_rate Fail_node;
        Obs.stop obs "sim.fail_node" t0
      | Fail_srlg ->
        let t0 = Obs.start obs in
        (match config.srlg with
         | None -> ()
         | Some (_, rate) ->
           (if Array.length srlg_groups > 0 then begin
              let g, members =
                srlg_groups.(Rng.int rng (Array.length srlg_groups))
              in
              let live =
                List.filter (fun e -> not (Net.is_failed net e)) members
              in
              match live with
              | [] -> ()
              | _ ->
                (* the shared conduit is cut: every live member fails
                   atomically *)
                incr srlg_failures;
                counters.failures_injected <- counters.failures_injected + 1;
                Obs.event obs ~a:g "journal.srlg.fail";
                handle_failure time ~nodes:[] live
            end);
           reschedule time rate Fail_srlg);
        Obs.stop obs "sim.fail_srlg" t0
      | Fail_region ->
        let t0 = Obs.start obs in
        (match config.regional with
         | None -> ()
         | Some (rate, radius) ->
           (* A regional outage (power loss, disaster) takes down every
              node within [radius] hops of a uniformly drawn centre, and
              with them every incident fibre, atomically. *)
           let center = Rng.int rng (Net.n_nodes net) in
           let dist = node_ball center radius in
           let in_ball v = dist.(v) >= 0 in
           let links =
             List.filter
               (fun e ->
                 (not (Net.is_failed net e))
                 && (in_ball (Net.link_src net e) || in_ball (Net.link_dst net e)))
               (List.init n_links Fun.id)
           in
           let nodes =
             List.filter in_ball (List.init (Net.n_nodes net) Fun.id)
           in
           (match links with
            | [] -> ()
            | _ ->
              incr regional_failures;
              counters.failures_injected <- counters.failures_injected + 1;
              Obs.event obs ~a:center ~b:radius "journal.region.fail";
              handle_failure time ~nodes links);
           reschedule time rate Fail_region);
        Obs.stop obs "sim.fail_region" t0
      | Repair_links links ->
        let t0 = Obs.start obs in
        List.iter
          (fun link ->
            Net.repair_link net link;
            Obs.event obs ~a:link "journal.link.repair")
          links;
        ignore (observe_load time);
        Obs.stop obs "sim.repair" t0)
  done;
  Metrics.finish load_trace ~time:config.duration;
  (* Connections still holding at the horizon carried their time so far;
     nothing was lost (summed in id order for float determinism). *)
  List.iter (note_carried config.duration) (Book.conns book);
  let availability =
    let total = !carried_time +. !lost_time in
    if total > 0.0 then !carried_time /. total else 1.0
  in
  {
    counters;
    mean_load = Metrics.time_average load_trace;
    peak_load = Metrics.peak load_trace;
    load_trace = Metrics.samples load_trace;
    dropped = !dropped;
    completed = !completed;
    node_failures = !node_failures;
    srlg_failures = !srlg_failures;
    regional_failures = !regional_failures;
    backups_reprovisioned = !backups_reprovisioned;
    class_stats =
      List.filter_map
        (fun k ->
          match Hashtbl.find_opt cls_offered k with
          | None -> None
          | Some offered ->
            Some
              {
                cls = k;
                cls_offered = offered;
                cls_blocked = Option.value ~default:0 (Hashtbl.find_opt cls_blocked k);
              })
        [ Premium; Standard; Best_effort ];
    preemptions = !preemptions;
    preempted_lost = !preempted_lost;
    carried_time = !carried_time;
    lost_time = !lost_time;
    availability;
    backup_hops_reserved = !backup_hops_reserved;
  }
