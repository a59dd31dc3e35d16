(* Tests for the discrete-event simulator and its support modules. *)

module EQ = Rr_sim.Event_queue
module Workload = Rr_sim.Workload
module Metrics = Rr_sim.Metrics
module Simulator = Rr_sim.Simulator
module Net = Rr_wdm.Network
module Router = Robust_routing.Router
module Rng = Rr_util.Rng

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Event queue                                                          *)

let test_eq_ordering () =
  let q = EQ.create () in
  EQ.schedule q 3.0 "c";
  EQ.schedule q 1.0 "a";
  EQ.schedule q 2.0 "b";
  check Alcotest.(option (pair (float 0.0) string)) "a first" (Some (1.0, "a")) (EQ.next q);
  check Alcotest.(option (pair (float 0.0) string)) "b next" (Some (2.0, "b")) (EQ.next q);
  check Alcotest.(option (pair (float 0.0) string)) "c last" (Some (3.0, "c")) (EQ.next q);
  check Alcotest.(option (pair (float 0.0) string)) "empty" None (EQ.next q)

let test_eq_fifo_ties () =
  let q = EQ.create () in
  EQ.schedule q 1.0 "first";
  EQ.schedule q 1.0 "second";
  EQ.schedule q 1.0 "third";
  check Alcotest.(option (pair (float 0.0) string)) "fifo 1" (Some (1.0, "first")) (EQ.next q);
  check Alcotest.(option (pair (float 0.0) string)) "fifo 2" (Some (1.0, "second")) (EQ.next q);
  check Alcotest.(option (pair (float 0.0) string)) "fifo 3" (Some (1.0, "third")) (EQ.next q)

let test_eq_rejects_bad_time () =
  let q = EQ.create () in
  Alcotest.check_raises "negative time" (Invalid_argument "Event_queue.schedule: bad time")
    (fun () -> EQ.schedule q (-1.0) ())

let prop_eq_sorts =
  QCheck.Test.make ~name:"event queue drains in time order" ~count:150
    QCheck.(list_of_size Gen.(int_range 0 50) (float_range 0.0 100.0))
    (fun times ->
      let q = EQ.create () in
      List.iter (fun t -> EQ.schedule q t t) times;
      let rec drain acc =
        match EQ.next q with None -> List.rev acc | Some (t, _) -> drain (t :: acc)
      in
      drain [] = List.sort compare times)

(* ------------------------------------------------------------------ *)
(* Workload                                                             *)

let test_workload_erlang () =
  let m = Workload.make ~arrival_rate:2.0 ~mean_holding:10.0 in
  check Alcotest.(float 1e-9) "erlang" 20.0 (Workload.erlang m)

let test_workload_pairs_distinct () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let s, d = Workload.random_pair rng ~n_nodes:6 in
    checkb "distinct" true (s <> d);
    checkb "in range" true (s >= 0 && s < 6 && d >= 0 && d < 6)
  done

let test_workload_hotspot_bias () =
  let rng = Rng.create 10 in
  let hot = ref 0 in
  let n = 5000 in
  for _ = 1 to n do
    let _, d = Workload.hotspot_pair rng ~n_nodes:10 ~hotspots:[ 0 ] ~bias:0.8 in
    if d = 0 then incr hot
  done;
  (* ~80% plus the uniform share; comfortably above 70% *)
  checkb "bias respected" true (float_of_int !hot /. float_of_int n > 0.7)

let test_workload_validation () =
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Workload.make: arrival_rate must be positive") (fun () ->
      ignore (Workload.make ~arrival_rate:0.0 ~mean_holding:1.0))

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let test_metrics_time_average () =
  let tr = Metrics.trace () in
  Metrics.observe tr ~time:0.0 0.0;
  Metrics.observe tr ~time:10.0 1.0;
  Metrics.finish tr ~time:20.0;
  (* 0 for 10 time units, 1 for 10 -> average 0.5 *)
  check Alcotest.(float 1e-9) "time average" 0.5 (Metrics.time_average tr);
  check Alcotest.(float 1e-9) "peak" 1.0 (Metrics.peak tr)

let test_metrics_monotone_time () =
  let tr = Metrics.trace () in
  Metrics.observe tr ~time:5.0 1.0;
  Alcotest.check_raises "backwards" (Invalid_argument "Metrics.observe: time went backwards")
    (fun () -> Metrics.observe tr ~time:4.0 1.0)

let test_metrics_counters () =
  let c = Metrics.counters () in
  c.offered <- 10;
  c.blocked <- 3;
  c.admitted <- 7;
  check Alcotest.(float 1e-9) "blocking" 0.3 (Metrics.blocking_probability c);
  c.restorations_ok <- 3;
  c.restorations_failed <- 1;
  check Alcotest.(float 1e-9) "restoration success" 0.75 (Metrics.restoration_success c)

(* ------------------------------------------------------------------ *)
(* Simulator                                                            *)

let nsfnet_net seed w =
  Rr_topo.Fitout.fit_out ~rng:(Rng.create seed) ~n_wavelengths:w
    Rr_topo.Reference.nsfnet

let base_config policy =
  let wl = Workload.make ~arrival_rate:0.5 ~mean_holding:10.0 in
  { (Simulator.default_config policy wl) with duration = 300.0; seed = 17 }

let test_sim_no_failures_no_drops () =
  let net = nsfnet_net 1 4 in
  let r = Simulator.run net (base_config Router.Cost_approx) in
  check Alcotest.int "no drops without failures" 0 r.dropped;
  check Alcotest.int "no failures injected" 0 r.counters.failures_injected;
  check Alcotest.int "offered = admitted + blocked" r.counters.offered
    (r.counters.admitted + r.counters.blocked);
  checkb "some traffic flowed" true (r.counters.offered > 50)

let test_sim_does_not_mutate_argument () =
  let net = nsfnet_net 2 4 in
  let before = Net.total_in_use net in
  ignore (Simulator.run net (base_config Router.Cost_approx));
  check Alcotest.int "argument untouched" before (Net.total_in_use net)

let test_sim_deterministic () =
  let net = nsfnet_net 3 4 in
  let r1 = Simulator.run net (base_config Router.Load_cost) in
  let r2 = Simulator.run net (base_config Router.Load_cost) in
  check Alcotest.int "same admitted" r1.counters.admitted r2.counters.admitted;
  check Alcotest.int "same blocked" r1.counters.blocked r2.counters.blocked;
  check Alcotest.(float 1e-12) "same mean load" r1.mean_load r2.mean_load

let test_sim_blocking_increases_with_load () =
  let net = nsfnet_net 4 4 in
  let run rate =
    let wl = Workload.make ~arrival_rate:rate ~mean_holding:10.0 in
    let cfg = { (Simulator.default_config Router.Cost_approx wl) with duration = 400.0; seed = 5 } in
    Metrics.blocking_probability (Simulator.run net cfg).counters
  in
  let low = run 0.2 and high = run 3.0 in
  checkb
    (Printf.sprintf "blocking monotone (%.3f <= %.3f)" low high)
    true (low <= high +. 0.02)

let test_sim_failures_trigger_restorations () =
  let net = nsfnet_net 5 6 in
  let cfg =
    { (base_config Router.Cost_approx) with failure_rate = 0.05; repair_time = 30.0; seed = 23 }
  in
  let r = Simulator.run net cfg in
  checkb "failures happened" true (r.counters.failures_injected > 3);
  checkb "some restorations attempted" true
    (r.counters.restorations_ok + r.counters.restorations_failed
     + r.counters.passive_reroutes_ok
    >= 0);
  check Alcotest.int "books balance" r.counters.admitted
    (r.completed + r.dropped + (r.counters.admitted - r.completed - r.dropped));
  (* After the run the simulated copy is private, the argument clean. *)
  check Alcotest.int "argument untouched" 0 (Net.total_in_use net)

let test_sim_unprotected_drops_more () =
  (* Active protection should survive failures better than unprotected
     passive restoration under the same conditions. *)
  let net = nsfnet_net 6 6 in
  let mk policy =
    {
      (base_config policy) with
      failure_rate = 0.1;
      repair_time = 20.0;
      duration = 400.0;
      seed = 31;
    }
  in
  let protected_run = Simulator.run net (mk Router.Cost_approx) in
  let unprotected_run = Simulator.run net (mk Router.Unprotected) in
  checkb "failures in both" true
    (protected_run.counters.failures_injected > 0
    && unprotected_run.counters.failures_injected > 0);
  (* the protected policy restores actively *)
  checkb "active restorations occurred" true (protected_run.counters.restorations_ok >= 1);
  checkb "unprotected never uses backup" true (unprotected_run.counters.restorations_ok = 0)

let test_sim_node_failures () =
  let net = nsfnet_net 8 6 in
  let cfg =
    {
      (base_config Router.Node_protect) with
      node_failure_rate = 0.03;
      repair_time = 25.0;
      duration = 400.0;
      seed = 41;
    }
  in
  let r = Simulator.run net cfg in
  checkb "node failures happened" true (r.node_failures > 2);
  check Alcotest.int "books balance" r.counters.offered
    (r.counters.admitted + r.counters.blocked);
  check Alcotest.int "argument untouched" 0 (Net.total_in_use net)

let test_sim_node_protect_survives_node_failures_better () =
  (* Under node outages, node-disjoint backups restore by switchover;
     edge-disjoint-only backups often share the failed node and must fall
     back to passive re-routing (or drop). *)
  let net = nsfnet_net 12 8 in
  let mk policy =
    {
      (base_config policy) with
      node_failure_rate = 0.05;
      repair_time = 20.0;
      duration = 500.0;
      seed = 3;
    }
  in
  let node_prot = Simulator.run net (mk Router.Node_protect) in
  let edge_prot = Simulator.run net (mk Router.Cost_approx) in
  checkb "both saw outages" true (node_prot.node_failures > 3 && edge_prot.node_failures > 3);
  let switch_share r =
    let c = r.Simulator.counters in
    let total =
      c.restorations_ok + c.restorations_failed + c.passive_reroutes_ok
    in
    if total = 0 then 1.0 else float_of_int c.restorations_ok /. float_of_int total
  in
  checkb
    (Printf.sprintf "node-protect switchover share %.2f >= edge-protect %.2f"
       (switch_share node_prot) (switch_share edge_prot))
    true
    (switch_share node_prot >= switch_share edge_prot -. 0.05)

let test_sim_reprovision_backup () =
  let net = nsfnet_net 9 8 in
  let mk rb =
    {
      (base_config Router.Cost_approx) with
      failure_rate = 0.08;
      repair_time = 30.0;
      duration = 400.0;
      seed = 19;
      reprovision_backup = rb;
    }
  in
  let without = Simulator.run net (mk false) in
  let with_rb = Simulator.run net (mk true) in
  check Alcotest.int "no reprovisioning when disabled" 0 without.backups_reprovisioned;
  checkb "reprovisioning happens when enabled" true (with_rb.backups_reprovisioned > 0);
  check Alcotest.int "network clean afterwards" 0 (Net.total_in_use net)

let test_sim_batched_admission () =
  let net = nsfnet_net 14 6 in
  let batched order =
    let cfg =
      { (base_config Router.Cost_approx) with batching = Some (10.0, order); seed = 21 }
    in
    Simulator.run net cfg
  in
  let immediate = Simulator.run net { (base_config Router.Cost_approx) with seed = 21 } in
  let b = batched Robust_routing.Batch.Fifo in
  (* same arrival stream scale; batching only delays admission *)
  check Alcotest.int "books balance" b.counters.offered
    (b.counters.admitted + b.counters.blocked);
  checkb "comparable offered volume" true
    (abs (b.counters.offered - immediate.counters.offered) < 30);
  checkb "some admissions" true (b.counters.admitted > 50);
  check Alcotest.int "argument untouched" 0 (Net.total_in_use net);
  (* a non-trivial ordering also runs cleanly *)
  let s = batched (Robust_routing.Batch.Shortest_first) in
  check Alcotest.int "ordered books balance" s.counters.offered
    (s.counters.admitted + s.counters.blocked)

let test_sim_batching_validation () =
  let net = nsfnet_net 14 6 in
  let cfg =
    { (base_config Router.Cost_approx) with batching = Some (0.0, Robust_routing.Batch.Fifo) }
  in
  Alcotest.check_raises "zero interval rejected"
    (Invalid_argument "Simulator.run: batching interval must be positive")
    (fun () -> ignore (Simulator.run net cfg))

let test_sim_service_classes () =
  let net = nsfnet_net 16 4 in
  let wl = Workload.make ~arrival_rate:3.0 ~mean_holding:12.0 in
  let cfg =
    {
      (Simulator.default_config Router.Cost_approx wl) with
      duration = 300.0;
      seed = 12;
      class_mix = Some (0.3, 0.4);
    }
  in
  let r = Simulator.run net cfg in
  check Alcotest.int "all classes present" 3 (List.length r.class_stats);
  let stat k = List.find (fun s -> s.Simulator.cls = k) r.class_stats in
  let blocking s =
    if s.Simulator.cls_offered = 0 then 0.0
    else float_of_int s.Simulator.cls_blocked /. float_of_int s.Simulator.cls_offered
  in
  let p = stat Simulator.Premium and be = stat Simulator.Best_effort in
  checkb "saturated enough to discriminate" true
    (r.counters.blocked > 0 && r.preemptions > 0);
  checkb
    (Printf.sprintf "premium blocks less than best-effort+loss (%.3f vs %.3f)"
       (blocking p) (blocking be))
    true
    (blocking p <= blocking be +. 0.05);
  (* every class sums into the global books *)
  check Alcotest.int "class offered sums" r.counters.offered
    (List.fold_left (fun a s -> a + s.Simulator.cls_offered) 0 r.class_stats);
  checkb "losses bounded by preemptions" true (r.preempted_lost <= r.preemptions);
  check Alcotest.int "argument untouched" 0 (Net.total_in_use net)

let test_sim_class_mix_validation () =
  let net = nsfnet_net 16 4 in
  let cfg =
    { (base_config Router.Cost_approx) with class_mix = Some (0.8, 0.5) }
  in
  Alcotest.check_raises "bad mix"
    (Invalid_argument "Simulator.run: class_mix fractions must be a sub-distribution")
    (fun () -> ignore (Simulator.run net cfg))

let test_sim_default_all_standard () =
  let net = nsfnet_net 16 4 in
  let r = Simulator.run net (base_config Router.Cost_approx) in
  (match r.class_stats with
   | [ s ] ->
     checkb "standard only" true (s.Simulator.cls = Simulator.Standard);
     check Alcotest.int "all offered standard" r.counters.offered s.Simulator.cls_offered
   | _ -> Alcotest.fail "exactly one class expected");
  check Alcotest.int "no preemptions" 0 r.preemptions

let test_sim_warmup_discards_transient () =
  let net = nsfnet_net 18 4 in
  let full = Simulator.run net { (base_config Router.Cost_approx) with seed = 9 } in
  let warm =
    Simulator.run net { (base_config Router.Cost_approx) with seed = 9; warmup = 150.0 }
  in
  checkb "warmup counts fewer arrivals" true
    (warm.counters.offered < full.counters.offered);
  check Alcotest.int "books still balance" warm.counters.offered
    (warm.counters.admitted + warm.counters.blocked);
  checkb "still counted something" true (warm.counters.offered > 10)

let test_sim_kitchen_sink () =
  (* Every feature at once: batching + classes + link and node failures +
     reprovisioning + hotspots + warmup.  The invariants must survive the
     interactions. *)
  let net = nsfnet_net 27 6 in
  let wl = Workload.make ~arrival_rate:2.0 ~mean_holding:12.0 in
  let cfg =
    {
      (Simulator.default_config Router.Load_cost wl) with
      duration = 400.0;
      seed = 3;
      failure_rate = 0.03;
      node_failure_rate = 0.01;
      repair_time = 25.0;
      reprovision_backup = true;
      reconfig_threshold = 0.85;
      hotspots = Some ([ 5; 8 ], 0.4);
      batching = Some (5.0, Robust_routing.Batch.Shortest_first);
      warmup = 50.0;
      class_mix = Some (0.25, 0.25);
    }
  in
  let r = Simulator.run net cfg in
  check Alcotest.int "books balance" r.counters.offered
    (r.counters.admitted + r.counters.blocked);
  check Alcotest.int "class offered sums" r.counters.offered
    (List.fold_left (fun a s -> a + s.Simulator.cls_offered) 0 r.class_stats);
  checkb "traffic flowed" true (r.counters.admitted > 50);
  checkb "failures happened" true (r.counters.failures_injected > 0);
  check Alcotest.int "argument untouched" 0 (Net.total_in_use net)

(* ------------------------------------------------------------------ *)
(* Survivability: per-link/SRLG/regional failure processes, partial
   protection and restoration determinism                               *)

(* The full failure suite at once, with per-link rates that harden every
   third fibre — the configuration the survivability bench gates on. *)
let surv_config policy =
  let net = nsfnet_net 9 8 in
  let m = Net.n_links net in
  let rates = Array.init m (fun e -> if e mod 3 = 0 then 0.0 else 0.004) in
  let wl = Workload.make ~arrival_rate:1.5 ~mean_holding:12.0 in
  let groups =
    Robust_routing.Srlg.conduits_of_topology ~rng:(Rng.create 26) net
      ~conduits:8
  in
  ( net,
    {
      (Simulator.default_config policy wl) with
      duration = 400.0;
      seed = 29;
      link_fail_rates = Some rates;
      link_repair_rates = Some (Array.make m (1.0 /. 20.0));
      srlg = Some (groups, 0.01);
      regional = Some (0.004, 1);
      reprovision_backup = true;
      partial_protection =
        Some (Robust_routing.Partial_protect.exposure_of_rates rates);
    } )

let test_sim_restoration_deterministic () =
  (* Two runs of the same seeded config — per-link clocks, SRLG cuts,
     regional outages, partial protection, re-provisioning — must agree
     on every reported number, including the Erlang-time accounting. *)
  let net, cfg = surv_config Router.Load_cost in
  let r1 = Simulator.run net cfg in
  let r2 = Simulator.run net cfg in
  check Alcotest.int "admitted" r1.counters.admitted r2.counters.admitted;
  check Alcotest.int "blocked" r1.counters.blocked r2.counters.blocked;
  check Alcotest.int "dropped" r1.dropped r2.dropped;
  check Alcotest.int "completed" r1.completed r2.completed;
  check Alcotest.int "failures" r1.counters.failures_injected
    r2.counters.failures_injected;
  check Alcotest.int "srlg cuts" r1.srlg_failures r2.srlg_failures;
  check Alcotest.int "regional outages" r1.regional_failures r2.regional_failures;
  check Alcotest.int "switchovers" r1.counters.restorations_ok
    r2.counters.restorations_ok;
  check Alcotest.int "passive reroutes" r1.counters.passive_reroutes_ok
    r2.counters.passive_reroutes_ok;
  check Alcotest.int "reprovisioned" r1.backups_reprovisioned
    r2.backups_reprovisioned;
  check Alcotest.int "backup hops reserved" r1.backup_hops_reserved
    r2.backup_hops_reserved;
  check Alcotest.(float 1e-12) "carried time" r1.carried_time r2.carried_time;
  check Alcotest.(float 1e-12) "lost time" r1.lost_time r2.lost_time;
  check Alcotest.(float 1e-12) "availability" r1.availability r2.availability;
  (* and the scenario actually exercised every failure process *)
  checkb "link cuts happened" true (r1.counters.failures_injected > 0);
  checkb "srlg cuts happened" true (r1.srlg_failures > 0);
  checkb "regional outages happened" true (r1.regional_failures > 0);
  check Alcotest.int "argument untouched" 0 (Net.total_in_use net)

let test_sim_hardened_links_never_fail () =
  let net = nsfnet_net 9 6 in
  let m = Net.n_links net in
  let mk rates =
    {
      (base_config Router.Cost_approx) with
      seed = 33;
      link_fail_rates = Some rates;
    }
  in
  (* All-hardened plant: per-link clocks exist but never ring. *)
  let r0 = Simulator.run net (mk (Array.make m 0.0)) in
  check Alcotest.int "no failures on hardened plant" 0
    r0.counters.failures_injected;
  check Alcotest.int "no drops" 0 r0.dropped;
  let r1 = Simulator.run net (mk (Array.make m 0.01)) in
  checkb "exposed plant fails" true (r1.counters.failures_injected > 0)

let test_sim_availability_accounting () =
  (* availability = carried / (carried + lost), and a failure-free run
     carries everything. *)
  let net, cfg = surv_config Router.Cost_approx in
  let r = Simulator.run net cfg in
  checkb "availability in (0,1]" true
    (r.availability > 0.0 && r.availability <= 1.0);
  check
    Alcotest.(float 1e-9)
    "availability consistent with Erlang-time books"
    (r.carried_time /. (r.carried_time +. r.lost_time))
    r.availability;
  let clean = Simulator.run net (base_config Router.Cost_approx) in
  check Alcotest.(float 1e-9) "failure-free run fully available" 1.0
    clean.availability;
  check Alcotest.(float 1e-9) "nothing lost" 0.0 clean.lost_time

(* Observability never changes a decision: failure-heavy runs — per-link
   rates, SRLG and regional cuts, node outages, re-provisioning, service
   classes and batched admission, with partial protection and (since
   partially protected premium requests never preempt) without it — give
   the same report under [Obs.null] as under an enabled context. *)
let test_sim_obs_invariant () =
  let net, base = surv_config Router.Cost_approx in
  let cfg =
    {
      base with
      workload = Workload.make ~arrival_rate:4.0 ~mean_holding:12.0;
      node_failure_rate = 0.01;
      srlg = Option.map (fun (groups, _) -> (groups, 0.03)) base.srlg;
      regional = Some (0.02, 1);
      class_mix = Some (0.3, 0.4);
      batching = Some (2.0, Robust_routing.Batch.Longest_first);
    }
  in
  let same cfg =
    let plain = Simulator.run ~obs:Rr_obs.Obs.null net cfg in
    let traced = Simulator.run ~obs:(Rr_obs.Obs.create ()) net cfg in
    checkb "reports equal" true (compare plain traced = 0);
    checkb "restorations happened" true (plain.counters.restorations_ok > 0);
    checkb "endpoint losses happened" true (plain.counters.endpoint_losses > 0);
    plain
  in
  ignore (same cfg);
  let full = same { cfg with partial_protection = None } in
  checkb "preemption happened" true (full.preemptions > 0)

(* A short run shaped like the ledger's sim-failover workload: EON at
   W = 16 with Full converters, cuts at rate 0.01 on every link with
   e mod 3 <> 0, mean-5 repairs, eight SRLG conduits cut at 0.1,
   radius-1 regional outages at 0.02, backup re-provisioning, and partial
   protection over the exposed links.  The report and the admission
   counters are pinned to the values captured before the layered kernels
   read flat availability words and partial protection gained its hop
   bound — both change only the work done, never a routing.  The
   [hop_bound] count, which that change introduced, is pinned too. *)
let test_sim_failover_pin () =
  let net =
    Rr_topo.Fitout.fit_out ~rng:(Rng.create 103) ~n_wavelengths:16 Rr_topo.Reference.eon
  in
  let m = Net.n_links net in
  let rates = Array.init m (fun e -> if e mod 3 = 0 then 0.0 else 0.01) in
  let groups =
    Robust_routing.Srlg.conduits_of_topology ~rng:(Rng.create 107) net ~conduits:8
  in
  let cfg =
    {
      (Simulator.default_config Router.Cost_approx
         (Workload.make ~arrival_rate:40.0 ~mean_holding:1.0))
      with
      Simulator.duration = 30.0;
      seed = 5;
      link_fail_rates = Some rates;
      link_repair_rates = Some (Array.make m (1.0 /. 5.0));
      srlg = Some (groups, 0.1);
      regional = Some (0.02, 1);
      reprovision_backup = true;
      partial_protection = Some (Robust_routing.Partial_protect.exposure_of_rates rates);
    }
  in
  let obs = Rr_obs.Obs.create () in
  let r = Simulator.run ~obs net cfg in
  let c = r.Simulator.counters in
  let int = check Alcotest.int and bits name x = check Alcotest.string name x in
  int "offered" 1187 c.offered;
  int "admitted" 1081 c.admitted;
  int "blocked" 106 c.blocked;
  int "failures injected" 18 c.failures_injected;
  int "restorations ok" 28 c.restorations_ok;
  int "restorations failed" 3 c.restorations_failed;
  int "passive re-routes" 2 c.passive_reroutes_ok;
  int "endpoint losses" 15 c.endpoint_losses;
  bits "admitted cost" "0x1.804bbp+21" (Printf.sprintf "%h" c.total_admitted_cost);
  bits "availability" "0x1.fa23521969f29p-1" (Printf.sprintf "%h" r.availability);
  int "backup hops reserved" 3037 r.backup_hops_reserved;
  int "dropped" 18 r.dropped;
  int "backups re-provisioned" 22 r.backups_reprovisioned;
  let counter = Rr_obs.Metrics.counter (Rr_obs.Obs.metrics obs) in
  int "segmented" 395 (counter "survive.partial.segmented");
  int "full fallback" 686 (counter "survive.partial.full_fallback");
  int "hop bound" 608 (counter "survive.partial.hop_bound");
  int "network clean afterwards" 0 (Net.total_in_use net)

let test_sim_partial_protection_reserves_less () =
  (* Against the same exposure, segment detours cost at most as many
     backup wavelength-links as full edge-disjoint pairs — and still
     reserve something on an exposed plant. *)
  let net = nsfnet_net 9 8 in
  let m = Net.n_links net in
  let rates = Array.init m (fun e -> if e mod 3 = 0 then 0.0 else 0.004) in
  let wl = Workload.make ~arrival_rate:1.5 ~mean_holding:12.0 in
  let mk partial =
    {
      (Simulator.default_config Router.Cost_approx wl) with
      duration = 300.0;
      seed = 43;
      link_fail_rates = Some rates;
      partial_protection =
        (if partial then
           Some (Robust_routing.Partial_protect.exposure_of_rates rates)
         else None);
    }
  in
  let full = Simulator.run net (mk false) in
  let part = Simulator.run net (mk true) in
  checkb "full protection reserves backups" true
    (full.backup_hops_reserved > 0);
  checkb
    (Printf.sprintf "partial (%d) <= full (%d) backup wavelength-links"
       part.backup_hops_reserved full.backup_hops_reserved)
    true
    (part.backup_hops_reserved <= full.backup_hops_reserved);
  check Alcotest.int "argument untouched" 0 (Net.total_in_use net)

let test_sim_failure_config_validation () =
  let net = nsfnet_net 9 4 in
  let bad rates =
    { (base_config Router.Cost_approx) with link_fail_rates = Some rates }
  in
  Alcotest.check_raises "short rate array"
    (Invalid_argument
       "Simulator.run: link_fail_rates length must equal the link count")
    (fun () -> ignore (Simulator.run net (bad [| 0.1 |])));
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Simulator.run: link_fail_rates must be non-negative")
    (fun () ->
      ignore
        (Simulator.run net (bad (Array.make (Net.n_links net) (-1.0)))));
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Simulator.run: regional radius must be non-negative")
    (fun () ->
      ignore
        (Simulator.run net
           { (base_config Router.Cost_approx) with regional = Some (0.1, -1) }))

let prop_sim_books_balance =
  QCheck.Test.make ~name:"offered = admitted + blocked; resources conserved"
    ~count:10 QCheck.small_int (fun seed ->
      let net = nsfnet_net (seed + 40) 4 in
      let wl = Workload.make ~arrival_rate:1.0 ~mean_holding:8.0 in
      let cfg =
        { (Simulator.default_config Router.Two_step wl) with duration = 150.0; seed; failure_rate = 0.02 }
      in
      let r = Simulator.run net cfg in
      r.counters.offered = r.counters.admitted + r.counters.blocked
      && r.counters.admitted >= r.completed + r.dropped
      && Net.total_in_use net = 0)

let suite =
  [
    ( "sim.event_queue",
      [
        Alcotest.test_case "ordering" `Quick test_eq_ordering;
        Alcotest.test_case "fifo ties" `Quick test_eq_fifo_ties;
        Alcotest.test_case "rejects bad time" `Quick test_eq_rejects_bad_time;
        qtest prop_eq_sorts;
      ] );
    ( "sim.workload",
      [
        Alcotest.test_case "erlang" `Quick test_workload_erlang;
        Alcotest.test_case "pairs distinct" `Quick test_workload_pairs_distinct;
        Alcotest.test_case "hotspot bias" `Quick test_workload_hotspot_bias;
        Alcotest.test_case "validation" `Quick test_workload_validation;
      ] );
    ( "sim.metrics",
      [
        Alcotest.test_case "time average" `Quick test_metrics_time_average;
        Alcotest.test_case "monotone time" `Quick test_metrics_monotone_time;
        Alcotest.test_case "counters" `Quick test_metrics_counters;
      ] );
    ( "sim.simulator",
      [
        Alcotest.test_case "no failures, no drops" `Quick test_sim_no_failures_no_drops;
        Alcotest.test_case "argument not mutated" `Quick test_sim_does_not_mutate_argument;
        Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
        Alcotest.test_case "blocking monotone" `Quick test_sim_blocking_increases_with_load;
        Alcotest.test_case "failures and restoration" `Quick test_sim_failures_trigger_restorations;
        Alcotest.test_case "protection beats passive" `Quick test_sim_unprotected_drops_more;
        Alcotest.test_case "node failures" `Quick test_sim_node_failures;
        Alcotest.test_case "node-protect vs node outage" `Quick
          test_sim_node_protect_survives_node_failures_better;
        Alcotest.test_case "backup reprovisioning" `Quick test_sim_reprovision_backup;
        Alcotest.test_case "batched admission" `Quick test_sim_batched_admission;
        Alcotest.test_case "batching validation" `Quick test_sim_batching_validation;
        Alcotest.test_case "service classes" `Quick test_sim_service_classes;
        Alcotest.test_case "class mix validation" `Quick test_sim_class_mix_validation;
        Alcotest.test_case "default all standard" `Quick test_sim_default_all_standard;
        Alcotest.test_case "warmup" `Quick test_sim_warmup_discards_transient;
        Alcotest.test_case "kitchen sink" `Quick test_sim_kitchen_sink;
        Alcotest.test_case "restoration deterministic" `Quick
          test_sim_restoration_deterministic;
        Alcotest.test_case "hardened links never fail" `Quick
          test_sim_hardened_links_never_fail;
        Alcotest.test_case "availability accounting" `Quick
          test_sim_availability_accounting;
        Alcotest.test_case "partial protection reserves less" `Quick
          test_sim_partial_protection_reserves_less;
        Alcotest.test_case "sim-failover pin" `Quick test_sim_failover_pin;
        Alcotest.test_case "failure config validation" `Quick
          test_sim_failure_config_validation;
        Alcotest.test_case "obs does not change results" `Quick
          test_sim_obs_invariant;
        qtest prop_sim_books_balance;
      ] );
  ]
