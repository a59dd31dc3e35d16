(* Tests for the extensions beyond the paper: node-disjoint protection and
   shared backup protection (backup multiplexing), among others. *)

module Net = Rr_wdm.Network
module Conv = Rr_wdm.Conversion
module Slp = Rr_wdm.Semilightpath
module RR = Robust_routing
module Types = RR.Types
module SP = Rr_sim.Shared_protection
module Rng = Rr_util.Rng

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* One-shot policy calls, each on a fresh admission context. *)
let approx net ~source ~target =
  RR.Router.route (RR.Router.context net) RR.Router.Cost_approx ~source ~target

let node_protect net ~source ~target =
  RR.Node_protect.route ~workspace:(Rr_util.Workspace.create ()) net ~source
    ~target

let link ?(lambdas = [ 0; 1 ]) ?(weight = fun _ -> 1.0) u v =
  { Net.ls_src = u; ls_dst = v; ls_lambdas = lambdas; ls_weight = weight }

let random_net ?(n = 9) ?(w = 3) seed =
  let rng = Rng.create seed in
  let topo = Rr_topo.Random_topo.degree_bounded ~rng ~n ~degree:4 in
  Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:w topo

(* ------------------------------------------------------------------ *)
(* Node_protect                                                         *)

(* Hourglass: all edge-disjoint pairs share the waist node 2; no
   internally node-disjoint pair exists. *)
let hourglass () =
  Net.create ~n_nodes:6 ~n_wavelengths:2
    ~links:
      [
        link 0 1; link 0 2; link 1 2;   (* top: 0 -> {1 direct, via 2} *)
        link 2 3; link 2 4;             (* waist fan-out *)
        link 3 5; link 4 5;             (* bottom *)
        link 1 2 ~weight:(fun _ -> 2.0);
      ]
    ~converters:(fun _ -> Conv.Full 0.5)

let test_node_protect_refuses_waist () =
  let net = hourglass () in
  (* Edge-disjoint pairs 0 -> 5 exist (e.g. 0-1-2-3-5 and 0-2-4-5)... *)
  checkb "edge-disjoint pair exists" true
    (Result.is_ok (approx net ~source:0 ~target:5));
  (* ... but every 0 -> 5 path transits node 2. *)
  checkb "node-disjoint pair impossible" true
    (Result.is_error (node_protect net ~source:0 ~target:5))

let test_node_protect_on_ring () =
  let net =
    Rr_topo.Fitout.fit_out ~rng:(Rng.create 2) ~n_wavelengths:2
      (Rr_topo.Reference.ring 6)
  in
  match node_protect net ~source:0 ~target:3 with
  | Error _ -> Alcotest.fail "ring arcs are node-disjoint"
  | Ok sol ->
    checkb "valid" true (Types.validate net { src = 0; dst = 3 } sol = Ok ());
    checkb "node disjoint" true (RR.Node_protect.node_disjoint net sol)

let prop_node_protect_solutions_node_disjoint =
  QCheck.Test.make ~name:"node-protect solutions are internally node-disjoint"
    ~count:60 QCheck.small_int (fun seed ->
      let net = random_net (seed + 17) in
      let target = Net.n_nodes net - 1 in
      match node_protect net ~source:0 ~target with
      | Error _ -> true
      | Ok sol ->
        Types.validate net { src = 0; dst = target } sol = Ok ()
        && RR.Node_protect.node_disjoint net sol)

let prop_node_protect_never_beats_edge_protect =
  QCheck.Test.make
    ~name:"node-disjointness is a restriction: cost >= edge-disjoint cost"
    ~count:40 QCheck.small_int (fun seed ->
      let net = random_net (seed + 53) in
      let target = Net.n_nodes net - 1 in
      match
        ( node_protect net ~source:0 ~target,
          RR.Exact.route net ~source:0 ~target )
      with
      | Ok sol, Some (_, opt) -> Types.total_cost net sol >= opt -. 1e-6
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Shared_protection                                                    *)

(* A network shaped so two connections have link-disjoint primaries and a
   common backup corridor:

     0 -> 1 -> 5   (primary A)
     2 -> 3 -> 6   (primary B, disjoint from A)
     both can back up through the corridor 0/2 -> 4 -> 5/6. *)
let sharing_net () =
  Net.create ~n_nodes:7 ~n_wavelengths:2
    ~links:
      [
        link 0 1; link 1 5;          (* e0 e1: primary A *)
        link 2 3; link 3 6;          (* e2 e3: primary B *)
        link 0 4; link 4 5;          (* e4 e5: backup corridor for A *)
        link 2 4; link 4 6;          (* e6 e7: corridor for B *)
      ]
    ~converters:(fun _ -> Conv.Full 0.0)

let slp hops = { Slp.hops = List.map (fun (e, l) -> { Slp.edge = e; lambda = l }) hops }

let test_shared_backup_shares_corridor () =
  let net = sharing_net () in
  let sp = SP.create net in
  (* Connection 1: 0 -> 5, primary e0e1, backup e4 e5. *)
  let b1 = SP.admit sp ~conn:1 ~primary:(slp [ (0, 0); (1, 0) ]) ~backup_links:[ 4; 5 ] in
  checkb "conn 1 admitted" true (b1 <> None);
  check Alcotest.int "one fresh λ per corridor link" 2 (SP.backup_capacity sp);
  (* Connection 2: 2 -> 6, primary e2e3 (disjoint), backup e6 e7; e6/e7
     are different links, so capacity grows — make them share e4? The
     corridors only overlap at node 4, not on links, so instead test
     sharing on a common link: conn 3 with primary disjoint and backup
     using e4,e5 again. *)
  let b3 = SP.admit sp ~conn:3 ~primary:(slp [ (2, 0); (3, 0) ]) ~backup_links:[ 4; 5 ] in
  checkb "conn 3 admitted" true (b3 <> None);
  (* Backup slots on e4/e5 are shared: still only 2 wavelengths held. *)
  check Alcotest.int "corridor shared" 2 (SP.backup_capacity sp);
  checkb "sharing ratio = 2" true (Float.abs (SP.sharing_ratio sp -. 2.0) < 1e-9);
  (* Dedicated protection would need 4 backup wavelengths here. *)
  SP.release sp ~conn:1;
  check Alcotest.int "slots survive while conn 3 remains" 2 (SP.backup_capacity sp);
  SP.release sp ~conn:3;
  check Alcotest.int "all backup capacity freed" 0 (SP.backup_capacity sp);
  check Alcotest.int "network fully clean" 0 (Net.total_in_use net)

let test_shared_backup_conflicting_primaries_not_shared () =
  let net = sharing_net () in
  let sp = SP.create net in
  ignore (SP.admit sp ~conn:1 ~primary:(slp [ (0, 0); (1, 0) ]) ~backup_links:[ 4; 5 ]);
  (* Connection 2's primary uses link e1 as well (λ1): NOT link-disjoint
     from conn 1's primary, so its backup on the corridor must take a
     fresh wavelength. *)
  ignore (SP.admit sp ~conn:2 ~primary:(slp [ (0, 1); (1, 1) ]) ~backup_links:[ 4; 5 ]);
  check Alcotest.int "no sharing across conflicting primaries" 4 (SP.backup_capacity sp);
  checkb "ratio stays 1" true (Float.abs (SP.sharing_ratio sp -. 1.0) < 1e-9)

let test_shared_backup_activation_steals_slot () =
  let net = sharing_net () in
  let sp = SP.create net in
  ignore (SP.admit sp ~conn:1 ~primary:(slp [ (0, 0); (1, 0) ]) ~backup_links:[ 4; 5 ]);
  ignore (SP.admit sp ~conn:3 ~primary:(slp [ (2, 0); (3, 0) ]) ~backup_links:[ 4; 5 ]);
  check Alcotest.int "both protected" 2 (SP.protected_count sp);
  (* Conn 1's primary fails; it activates its backup and seizes the
     shared corridor. *)
  (match SP.activate_backup sp ~conn:1 with
   | None -> Alcotest.fail "activation expected"
   | Some (active, victims) ->
     check Alcotest.(list int) "conn 3 lost protection" [ 3 ] victims;
     checkb "active path uses corridor" true (List.mem 4 (Slp.links active)));
  (* conn 1 now runs on its ex-backup (no protection left) and conn 3 lost
     its backup to the seizure: nobody is protected. *)
  check Alcotest.int "no one protected" 0 (SP.protected_count sp);
  check Alcotest.int "both still running" 2 (SP.active_connections sp);
  check Alcotest.int "corridor no longer shared" 0 (SP.backup_capacity sp);
  (* Cleanup releases everything. *)
  SP.release sp ~conn:1;
  SP.release sp ~conn:3;
  check Alcotest.int "clean" 0 (Net.total_in_use net)

let test_shared_backup_admit_is_atomic () =
  let net = sharing_net () in
  let sp = SP.create net in
  (* Saturate the corridor entirely with exclusive allocations. *)
  Net.allocate net 4 0;
  Net.allocate net 4 1;
  let before = Net.total_in_use net in
  let r = SP.admit sp ~conn:9 ~primary:(slp [ (0, 0); (1, 0) ]) ~backup_links:[ 4; 5 ] in
  checkb "admission refused" true (r = None);
  check Alcotest.int "no leak on failure" before (Net.total_in_use net)

let test_shared_backup_rejects_overlap () =
  let net = sharing_net () in
  let sp = SP.create net in
  Alcotest.check_raises "backup overlapping primary"
    (Invalid_argument "Shared_protection.admit: backup shares a link with the primary")
    (fun () ->
      ignore (SP.admit sp ~conn:1 ~primary:(slp [ (0, 0); (1, 0) ]) ~backup_links:[ 0; 1 ]))

(* Randomised conservation: admissions and releases leave the network
   exactly as found. *)
let prop_shared_protection_conserves =
  QCheck.Test.make ~name:"shared protection conserves wavelengths" ~count:30
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 5) in
      let net = random_net ~n:8 ~w:4 (seed + 5) in
      let sp = SP.create net in
      let n = Net.n_nodes net in
      let active = ref [] in
      let next = ref 0 in
      for _ = 1 to 30 do
        if Rng.uniform rng < 0.6 || !active = [] then begin
          (* arrival: route with the approx algorithm, then admit through
             the sharing layer *)
          let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:n in
          match approx (SP.network sp) ~source:s ~target:d with
          | Ok { Types.primary; backup = Some b } -> (
            let id = !next in
            incr next;
            match
              SP.admit sp ~conn:id ~primary ~backup_links:(Slp.links b)
            with
            | Some _ -> active := id :: !active
            | None -> ())
          | _ -> ()
        end
        else begin
          match !active with
          | id :: rest ->
            SP.release sp ~conn:id;
            active := rest
          | [] -> ()
        end
      done;
      List.iter (fun id -> SP.release sp ~conn:id) !active;
      Net.total_in_use net = 0 && SP.backup_capacity sp = 0)

(* ------------------------------------------------------------------ *)
(* Batch (Section 2's periodic admission)                               *)

let test_batch_fifo_processes_in_order () =
  let net =
    Rr_topo.Fitout.fit_out ~rng:(Rng.create 1) ~n_wavelengths:2
      (Rr_topo.Reference.ring 6)
  in
  let reqs = [ { Types.src = 0; dst = 3 }; { Types.src = 1; dst = 4 } ] in
  let r = RR.Batch.process net RR.Router.Cost_approx reqs in
  check Alcotest.(list (pair int int)) "processing order preserved"
    [ (0, 3); (1, 4) ]
    (List.map (fun o -> (o.RR.Batch.request.Types.src, o.RR.Batch.request.Types.dst)) r.outcomes)

let test_batch_capacity_limits_admissions () =
  (* A W=2 ring fits exactly two protected 0->3 connections. *)
  let net =
    Rr_topo.Fitout.fit_out ~rng:(Rng.create 1) ~n_wavelengths:2
      (Rr_topo.Reference.ring 6)
  in
  let reqs = List.init 4 (fun _ -> { Types.src = 0; dst = 3 }) in
  let r = RR.Batch.process net RR.Router.Cost_approx reqs in
  check Alcotest.int "admitted" 2 r.admitted;
  check Alcotest.int "dropped" 2 r.dropped;
  check Alcotest.(float 1e-9) "ring saturated" 1.0 r.final_load

let test_batch_invalid_requests_dropped () =
  let net =
    Rr_topo.Fitout.fit_out ~rng:(Rng.create 1) ~n_wavelengths:2
      (Rr_topo.Reference.ring 5)
  in
  let reqs =
    [ { Types.src = 0; dst = 0 }; { Types.src = -1; dst = 2 }; { Types.src = 0; dst = 2 } ]
  in
  let r = RR.Batch.process net RR.Router.Cost_approx reqs in
  check Alcotest.int "only the valid one admitted" 1 r.admitted;
  check Alcotest.int "invalid dropped" 2 r.dropped

let test_batch_orderings_are_permutations () =
  let net () =
    Rr_topo.Fitout.fit_out ~rng:(Rng.create 3) ~n_wavelengths:4
      Rr_topo.Reference.nsfnet
  in
  let rng = Rng.create 8 in
  let reqs =
    List.init 12 (fun _ ->
        let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:14 in
        { Types.src = s; dst = d })
  in
  List.iter
    (fun order ->
      let r = RR.Batch.process ~order (net ()) RR.Router.Two_step reqs in
      let processed =
        List.map (fun o -> o.RR.Batch.request) r.outcomes |> List.sort compare
      in
      checkb
        (RR.Batch.order_name order ^ " is a permutation")
        true
        (processed = List.sort compare reqs))
    [ RR.Batch.Fifo; RR.Batch.Shortest_first; RR.Batch.Longest_first; RR.Batch.Random 5 ]

let prop_batch_conserves_resources =
  QCheck.Test.make ~name:"batch admissions account for every wavelength"
    ~count:30 QCheck.small_int (fun seed ->
      let net = random_net ~n:8 ~w:3 (seed + 97) in
      let rng = Rng.create seed in
      let reqs =
        List.init 10 (fun _ ->
            let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:8 in
            { Types.src = s; dst = d })
      in
      let r = RR.Batch.process net RR.Router.Cost_approx reqs in
      let expected =
        List.fold_left
          (fun acc o ->
            match o.RR.Batch.solution with
            | Some sol ->
              acc + Slp.length sol.Types.primary
              + (match sol.Types.backup with Some b -> Slp.length b | None -> 0)
            | None -> acc)
          0 r.outcomes
      in
      Net.total_in_use net = expected)

(* ------------------------------------------------------------------ *)
(* Batch.arrange                                                        *)

let test_batch_arrange_shortest_first () =
  let net =
    Rr_topo.Fitout.fit_out ~rng:(Rng.create 1) ~n_wavelengths:2
      (Rr_topo.Reference.ring 8)
  in
  (* hop distances on a ring: 0->4 is 4 hops, 0->1 is 1 hop, 0->3 is 3 *)
  let reqs =
    [ { Types.src = 0; dst = 4 }; { Types.src = 0; dst = 1 }; { Types.src = 0; dst = 3 } ]
  in
  let ordered = RR.Batch.arrange net RR.Batch.Shortest_first reqs in
  check Alcotest.(list int) "ascending hop order" [ 1; 3; 4 ]
    (List.map (fun r -> r.Types.dst) ordered);
  let rev = RR.Batch.arrange net RR.Batch.Longest_first reqs in
  check Alcotest.(list int) "descending hop order" [ 4; 3; 1 ]
    (List.map (fun r -> r.Types.dst) rev);
  check Alcotest.(list int) "fifo untouched" [ 4; 1; 3 ]
    (List.map (fun r -> r.Types.dst) (RR.Batch.arrange net RR.Batch.Fifo reqs))

let test_batch_arrange_stability () =
  (* equal-distance requests keep their arrival order (stable sort) *)
  let net =
    Rr_topo.Fitout.fit_out ~rng:(Rng.create 1) ~n_wavelengths:2
      (Rr_topo.Reference.ring 8)
  in
  let reqs =
    [ { Types.src = 0; dst = 2 }; { Types.src = 1; dst = 3 }; { Types.src = 2; dst = 4 } ]
  in
  let ordered = RR.Batch.arrange net RR.Batch.Shortest_first reqs in
  check Alcotest.(list (pair int int)) "stable"
    [ (0, 2); (1, 3); (2, 4) ]
    (List.map (fun r -> (r.Types.src, r.Types.dst)) ordered)

(* ------------------------------------------------------------------ *)
(* Gated auxiliary graph structure                                      *)

let test_gated_aux_structure () =
  let net = hourglass () in
  let aux = Rr_wdm.Auxiliary.gprime_gated net ~source:0 ~target:5 in
  let gates = ref 0 and connects = ref 0 in
  Array.iter
    (fun k ->
      match k with
      | Rr_wdm.Auxiliary.Gate _ -> incr gates
      | Rr_wdm.Auxiliary.Connect _ -> incr connects
      | _ -> ())
    aux.Rr_wdm.Auxiliary.kind;
  (* a gate exists for every node with at least one feasible transit *)
  checkb "some gates" true (!gates >= 3);
  checkb "connectors accompany gates" true (!connects >= 2 * !gates);
  (* gate arcs bound total transits of each node to one per disjoint path *)
  match Rr_wdm.Auxiliary.disjoint_pair aux with
  | None -> () (* hourglass: expected for 0->5 *)
  | Some _ -> Alcotest.fail "hourglass waist must block the gated pair"

(* ------------------------------------------------------------------ *)
(* Exact solver invariants                                              *)

let prop_exact_primary_not_costlier_than_backup =
  QCheck.Test.make ~name:"exact returns primary <= backup by cost" ~count:40
    QCheck.small_int (fun seed ->
      let net = random_net ~n:8 (seed + 950) in
      let target = Net.n_nodes net - 1 in
      match RR.Exact.route net ~source:0 ~target with
      | None -> true
      | Some (sol, total) ->
        let cp = Slp.cost net sol.Types.primary in
        let cb = Slp.cost net (Option.get sol.Types.backup) in
        cp <= cb +. 1e-9 && Float.abs (cp +. cb -. total) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Reconfigure bounds                                                   *)

let test_reconfigure_respects_max_moves () =
  let rng = Rng.create 5 in
  let net = random_net ~n:8 ~w:4 5 in
  let conns = ref [] in
  let id = ref 0 in
  let ctx = RR.Router.context net in
  for _ = 1 to 15 do
    let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:8 in
    match RR.Router.admit_result ctx RR.Router.Cost_approx ~source:s ~target:d with
    | Ok sol ->
      incr id;
      conns := (!id, sol) :: !conns
    | Error _ -> ()
  done;
  let o = RR.Reconfigure.reduce_load ~max_moves:1 net !conns in
  checkb "at most one move" true (List.length o.RR.Reconfigure.moves <= 1)

(* ------------------------------------------------------------------ *)
(* SRLG                                                                 *)

module Srlg = RR.Srlg

(* Diamond with a shared conduit: two 2-hop routes 0-1-3 and 0-2-3, whose
   first hops share a trench, plus an expensive conduit-free detour
   0-4-3. *)
let conduit_net () =
  Net.create ~n_nodes:5 ~n_wavelengths:2
    ~links:
      [
        link 0 1; link 1 3;                         (* e0 e1: route A *)
        link 0 2; link 2 3;                         (* e2 e3: route B *)
        link 0 4 ~weight:(fun _ -> 5.0);
        link 4 3 ~weight:(fun _ -> 5.0);            (* e4 e5: detour *)
      ]
    ~converters:(fun _ -> Conv.Full 0.0)

let conduit_groups () =
  (* e0 and e2 leave node 0 through the same trench (group 7) *)
  [| [ 7 ]; []; [ 7 ]; []; []; [] |]

let test_srlg_avoids_shared_conduit () =
  let net = conduit_net () in
  let groups = conduit_groups () in
  (* Plain edge-disjoint routing happily uses both conduit links. *)
  (match approx net ~source:0 ~target:3 with
   | Ok sol ->
     checkb "edge-disjoint pair shares the trench" true
       (Srlg.share_risk groups
          (Slp.links sol.Types.primary)
          (Slp.links (Option.get sol.Types.backup)))
   | Error _ -> Alcotest.fail "edge-disjoint pair exists");
  (* SRLG-aware routing must route one path over the detour. *)
  match Srlg.route net groups ~source:0 ~target:3 with
  | None -> Alcotest.fail "srlg pair exists via the detour"
  | Some sol ->
    checkb "valid" true (Types.validate net { src = 0; dst = 3 } sol = Ok ());
    checkb "no shared risk" false
      (Srlg.share_risk groups
         (Slp.links sol.Types.primary)
         (Slp.links (Option.get sol.Types.backup)));
    check Alcotest.(float 1e-9) "cheap route + detour" 12.0 (Types.total_cost net sol)

let test_srlg_infeasible () =
  let net = conduit_net () in
  (* All three corridors in one trench: no SRLG-disjoint pair. *)
  let groups = [| [ 1 ]; []; [ 1 ]; []; [ 1 ]; [] |] in
  checkb "heuristic none" true (Srlg.route net groups ~source:0 ~target:3 = None);
  checkb "exact none" true (Srlg.route_exact net groups ~source:0 ~target:3 = None)

let test_srlg_empty_groups_reduce_to_edge_disjoint () =
  let net = conduit_net () in
  let groups = Array.make 6 [] in
  match
    (Srlg.route_exact net groups ~source:0 ~target:3, RR.Exact.route net ~source:0 ~target:3)
  with
  | Some (_, a), Some (_, b) -> check Alcotest.(float 1e-9) "same optimum" b a
  | _ -> Alcotest.fail "both should solve"

let prop_srlg_heuristic_sound_and_bounded =
  QCheck.Test.make
    ~name:"srlg heuristic: sound, and never beats the exact optimum" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 777) in
      let net = random_net ~n:8 ~w:3 (seed + 777) in
      let groups = Srlg.conduits_of_topology ~rng net ~conduits:6 in
      let target = Net.n_nodes net - 1 in
      match
        ( Srlg.route net groups ~source:0 ~target,
          Srlg.route_exact net groups ~source:0 ~target )
      with
      | None, None -> true
      | None, Some _ -> true (* heuristic is incomplete; allowed to miss *)
      | Some _, None -> false (* but never unsound *)
      | Some sol, Some (_, opt) ->
        Types.validate net { src = 0; dst = target } sol = Ok ()
        && (not
              (Srlg.share_risk groups
                 (Slp.links sol.Types.primary)
                 (Slp.links (Option.get sol.Types.backup))))
        && Types.total_cost net sol >= opt -. 1e-6)

let test_srlg_group_validation () =
  let net = conduit_net () in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Srlg: groups array length differs from link count")
    (fun () -> ignore (Srlg.route net [| [] |] ~source:0 ~target:3))

(* ------------------------------------------------------------------ *)
(* Provisioning                                                         *)

module Prov = RR.Provisioning

let ring_net seed w =
  Rr_topo.Fitout.fit_out ~rng:(Rng.create seed) ~n_wavelengths:w
    (Rr_topo.Reference.ring 6)

let test_provisioning_sequential () =
  let net = ring_net 1 2 in
  let reqs = [ { Types.src = 0; dst = 3 }; { Types.src = 1; dst = 4 } ] in
  let plan = Prov.sequential net reqs in
  check Alcotest.int "both served" 2 plan.Prov.served;
  check Alcotest.int "no iterations" 0 plan.Prov.iterations;
  checkb "cost positive" true (plan.Prov.total_cost > 0.0);
  (* the input network was not mutated *)
  check Alcotest.int "input untouched" 0 (Net.total_in_use net)

let test_provisioning_local_search_no_regression () =
  for seed = 1 to 12 do
    let net = random_net ~n:9 ~w:3 (seed + 40) in
    let rng = Rng.create seed in
    let reqs =
      List.init 8 (fun _ ->
          let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:9 in
          { Types.src = s; dst = d })
    in
    let seq = Prov.sequential net reqs in
    let ls = Prov.local_search net reqs in
    checkb
      (Printf.sprintf "seed %d: served no worse (%d >= %d)" seed ls.Prov.served
         seq.Prov.served)
      true
      (ls.Prov.served >= seq.Prov.served);
    if ls.Prov.served = seq.Prov.served then
      checkb
        (Printf.sprintf "seed %d: cost no worse" seed)
        true
        (ls.Prov.total_cost <= seq.Prov.total_cost +. 1e-6)
  done

let test_provisioning_load_objective () =
  for seed = 1 to 8 do
    let net = random_net ~n:9 ~w:3 (seed + 80) in
    let rng = Rng.create (seed + 80) in
    let reqs =
      List.init 6 (fun _ ->
          let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:9 in
          { Types.src = s; dst = d })
    in
    let seq = Prov.sequential net reqs in
    let ls = Prov.local_search ~objective:Prov.Min_load_then_cost net reqs in
    if ls.Prov.served = seq.Prov.served then
      checkb
        (Printf.sprintf "seed %d: load no worse" seed)
        true
        (ls.Prov.network_load <= seq.Prov.network_load +. 1e-9)
  done

let test_provisioning_ilp_joint_tiny () =
  let net = ring_net 3 2 in
  let r1 = { Types.src = 0; dst = 3 } and r2 = { Types.src = 1; dst = 4 } in
  match Prov.ilp_joint net r1 r2 with
  | None -> Alcotest.fail "joint service feasible on a W=2 ring"
  | Some ((s1, s2), obj) ->
    checkb "r1 valid" true (Types.validate net r1 s1 = Ok ());
    checkb "r2 valid" true (Types.validate net r2 s2 = Ok ());
    (* Joint optimum cannot beat the independent optima's sum, and cannot
       lose to the sequential-greedy feasible solution. *)
    let indep =
      match (RR.Exact.route net ~source:0 ~target:3, RR.Exact.route net ~source:1 ~target:4) with
      | Some (_, a), Some (_, b) -> a +. b
      | _ -> Alcotest.fail "independent optima exist"
    in
    checkb "joint >= independent lower bound" true (obj >= indep -. 1e-6);
    let seq = Prov.sequential ~policy:RR.Router.Exact net [ r1; r2 ] in
    if seq.Prov.served = 2 then
      checkb "joint <= sequential upper bound" true (obj <= seq.Prov.total_cost +. 1e-6)

let test_provisioning_ilp_joint_infeasible () =
  (* W=1 ring: a single protected demand exhausts the 0/3 cut; serving two
     0->3-crossing demands simultaneously is impossible. *)
  let net =
    Rr_topo.Fitout.fit_out ~rng:(Rng.create 1) ~n_wavelengths:1
      (Rr_topo.Reference.ring 4)
  in
  let r1 = { Types.src = 0; dst = 2 } and r2 = { Types.src = 0; dst = 2 } in
  checkb "cannot serve both" true (Prov.ilp_joint net r1 r2 = None)

(* ------------------------------------------------------------------ *)
(* Reconfigure                                                          *)

let slp_of hops = { Slp.hops = List.map (fun (e, l) -> { Slp.edge = e; lambda = l }) hops }

(* Two parallel 2-hop corridors between 0 and 3 (links e0e1 and e2e3),
   plus a third corridor e4e5; W=2. *)
let corridors_net () =
  Net.create ~n_nodes:5 ~n_wavelengths:2
    ~links:
      [
        link 0 1; link 1 4;   (* corridor A: e0 e1 *)
        link 0 2; link 2 4;   (* corridor B: e2 e3 *)
        link 0 3; link 3 4;   (* corridor C: e4 e5 *)
      ]
    ~converters:(fun _ -> Conv.Full 0.0)

let test_reconfigure_relieves_bottleneck () =
  let net = corridors_net () in
  (* Pile two unprotected connections onto corridor A: ρ = 1 on e0/e1. *)
  let s1 = { Types.primary = slp_of [ (0, 0); (1, 0) ]; backup = None } in
  let s2 = { Types.primary = slp_of [ (0, 1); (1, 1) ]; backup = None } in
  Types.allocate net s1;
  Types.allocate net s2;
  check Alcotest.(float 1e-9) "saturated corridor" 1.0 (Net.network_load net);
  let outcome = RR.Reconfigure.reduce_load net [ (1, s1); (2, s2) ] in
  checkb "load strictly reduced" true
    (outcome.RR.Reconfigure.final_load < outcome.RR.Reconfigure.initial_load);
  checkb "at least one move" true (List.length outcome.RR.Reconfigure.moves >= 1);
  check Alcotest.(float 1e-9) "load is now balanced" 0.5 (Net.network_load net);
  (* books: the moved connections still hold exactly their wavelengths *)
  let held =
    List.fold_left
      (fun acc m ->
        acc + Slp.length m.RR.Reconfigure.after.Types.primary)
      0 outcome.RR.Reconfigure.moves
  in
  checkb "held consistent" true (held >= 0 && Net.total_in_use net = 4)

let test_reconfigure_idempotent_when_balanced () =
  let net = corridors_net () in
  let s1 = { Types.primary = slp_of [ (0, 0); (1, 0) ]; backup = None } in
  let s2 = { Types.primary = slp_of [ (2, 0); (3, 0) ]; backup = None } in
  Types.allocate net s1;
  Types.allocate net s2;
  let outcome = RR.Reconfigure.reduce_load net [ (1, s1); (2, s2) ] in
  check Alcotest.int "no moves when balanced" 0 (List.length outcome.RR.Reconfigure.moves);
  check Alcotest.(float 1e-9) "load unchanged" outcome.RR.Reconfigure.initial_load
    outcome.RR.Reconfigure.final_load

let prop_reconfigure_never_increases_load =
  QCheck.Test.make ~name:"reconfiguration never increases network load"
    ~count:25 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 13) in
      let net = random_net ~n:8 ~w:4 (seed + 13) in
      (* admit a handful of connections with the cost-only policy *)
      let conns = ref [] in
      let id = ref 0 in
      let ctx = RR.Router.context net in
      for _ = 1 to 12 do
        let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:8 in
        match RR.Router.admit_result ctx RR.Router.Cost_approx ~source:s ~target:d with
        | Ok sol ->
          incr id;
          conns := (!id, sol) :: !conns
        | Error _ -> ()
      done;
      let before_use = Net.total_in_use net in
      let outcome = RR.Reconfigure.reduce_load net !conns in
      outcome.RR.Reconfigure.final_load
      <= outcome.RR.Reconfigure.initial_load +. 1e-9
      && (* wavelength count conserved up to path-length changes of moved
            connections, and everything still released cleanly: *)
      begin
        (* apply moves to our table, then release everything *)
        let table = Hashtbl.create 16 in
        List.iter (fun (i, s) -> Hashtbl.replace table i s) !conns;
        List.iter
          (fun m -> Hashtbl.replace table m.RR.Reconfigure.conn m.RR.Reconfigure.after)
          outcome.RR.Reconfigure.moves;
        Hashtbl.iter (fun _ sol -> Types.release net sol) table;
        ignore before_use;
        Net.total_in_use net = 0
      end)

(* ------------------------------------------------------------------ *)
(* Hardness (Lemma 1 reduction)                                         *)

module Hardness = RR.Hardness

let test_hardness_yes_instance () =
  (* A clean yes-instance: disjoint routes 0-1-3 ((0,1)-weighted → λ0
     feasible under first component... use Both_zero to be safe) and
     0-2-3 feasible on λ1. *)
  let inst =
    {
      Hardness.i_nodes = 4;
      i_links =
        [
          (0, 1, Hardness.Second_one); (1, 3, Hardness.Second_one);
          (0, 2, Hardness.First_one); (2, 3, Hardness.First_one);
        ];
      i_src = 0;
      i_dst = 3;
    }
  in
  (* first path (cost by first components) must avoid First_one links →
     goes 0-1-3; second path (second components) must avoid Second_one →
     goes 0-2-3; disjoint → yes. *)
  checkb "yes instance" true (Hardness.decide_zero_cost inst);
  checkb "matches brute force" true (Hardness.brute_force_decide inst)

let test_hardness_no_instance () =
  (* Single shared bottleneck makes it impossible. *)
  let inst =
    {
      Hardness.i_nodes = 3;
      i_links = [ (0, 1, Hardness.Both_zero); (1, 2, Hardness.Both_zero) ];
      i_src = 0;
      i_dst = 2;
    }
  in
  checkb "no instance" false (Hardness.decide_zero_cost inst);
  checkb "matches brute force" false (Hardness.brute_force_decide inst)

let test_hardness_assignment_matters () =
  (* Two disjoint routes both feasible only on λ0: the unconstrained WDM
     network has a zero-cost pair, but the Lemma's one-path-per-wavelength
     requirement fails — this is exactly why the reduction encodes costs
     as availability. *)
  let inst =
    {
      Hardness.i_nodes = 4;
      i_links =
        [
          (0, 1, Hardness.Second_one); (1, 3, Hardness.Second_one);
          (0, 2, Hardness.Second_one); (2, 3, Hardness.Second_one);
        ];
      i_src = 0;
      i_dst = 3;
    }
  in
  checkb "no valid assignment" false (Hardness.decide_zero_cost inst);
  checkb "brute force agrees" false (Hardness.brute_force_decide inst);
  (* yet the relaxed problem (any wavelengths) has a disjoint pair *)
  let net = Hardness.to_network inst in
  checkb "relaxed pair exists" true (RR.Exact.route net ~source:0 ~target:3 <> None)

let prop_hardness_reduction_correct =
  QCheck.Test.make ~name:"Lemma 1 reduction: WDM decision = original decision"
    ~count:120 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 333) in
      let n = 3 + Rng.int rng 4 in
      let weights = [| Hardness.Both_zero; Hardness.First_one; Hardness.Second_one |] in
      let links = ref [] in
      (* random chain + chords, random pair weights *)
      for v = 0 to n - 2 do
        links := (v, v + 1, Rng.pick rng weights) :: !links
      done;
      for _ = 1 to Rng.int rng (2 * n) do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v then links := (u, v, Rng.pick rng weights) :: !links
      done;
      let inst =
        { Hardness.i_nodes = n; i_links = !links; i_src = 0; i_dst = n - 1 }
      in
      Hardness.decide_zero_cost inst = Hardness.brute_force_decide inst)

let suite =
  [
    ( "ext.batch_arrange",
      [
        Alcotest.test_case "shortest first" `Quick test_batch_arrange_shortest_first;
        Alcotest.test_case "stability" `Quick test_batch_arrange_stability;
      ] );
    ( "ext.gated_aux",
      [ Alcotest.test_case "structure" `Quick test_gated_aux_structure ] );
    ( "ext.exact_invariants",
      [ qtest prop_exact_primary_not_costlier_than_backup ] );
    ( "ext.reconfigure_bounds",
      [ Alcotest.test_case "max moves" `Quick test_reconfigure_respects_max_moves ] );
    ( "ext.srlg",
      [
        Alcotest.test_case "avoids shared conduit" `Quick test_srlg_avoids_shared_conduit;
        Alcotest.test_case "infeasible" `Quick test_srlg_infeasible;
        Alcotest.test_case "empty groups = edge disjoint" `Quick
          test_srlg_empty_groups_reduce_to_edge_disjoint;
        Alcotest.test_case "group validation" `Quick test_srlg_group_validation;
        qtest prop_srlg_heuristic_sound_and_bounded;
      ] );
    ( "ext.provisioning",
      [
        Alcotest.test_case "sequential" `Quick test_provisioning_sequential;
        Alcotest.test_case "local search no regression" `Quick
          test_provisioning_local_search_no_regression;
        Alcotest.test_case "load objective" `Quick test_provisioning_load_objective;
        Alcotest.test_case "ilp joint tiny" `Quick test_provisioning_ilp_joint_tiny;
        Alcotest.test_case "ilp joint infeasible" `Quick
          test_provisioning_ilp_joint_infeasible;
      ] );
    ( "ext.reconfigure",
      [
        Alcotest.test_case "relieves bottleneck" `Quick test_reconfigure_relieves_bottleneck;
        Alcotest.test_case "idempotent when balanced" `Quick
          test_reconfigure_idempotent_when_balanced;
        qtest prop_reconfigure_never_increases_load;
      ] );
    ( "ext.hardness",
      [
        Alcotest.test_case "yes instance" `Quick test_hardness_yes_instance;
        Alcotest.test_case "no instance" `Quick test_hardness_no_instance;
        Alcotest.test_case "assignment matters" `Quick test_hardness_assignment_matters;
        qtest prop_hardness_reduction_correct;
      ] );
    ( "ext.batch",
      [
        Alcotest.test_case "fifo order" `Quick test_batch_fifo_processes_in_order;
        Alcotest.test_case "capacity limit" `Quick test_batch_capacity_limits_admissions;
        Alcotest.test_case "invalid dropped" `Quick test_batch_invalid_requests_dropped;
        Alcotest.test_case "orderings permute" `Quick test_batch_orderings_are_permutations;
        qtest prop_batch_conserves_resources;
      ] );
    ( "ext.node_protect",
      [
        Alcotest.test_case "hourglass refused" `Quick test_node_protect_refuses_waist;
        Alcotest.test_case "ring ok" `Quick test_node_protect_on_ring;
        qtest prop_node_protect_solutions_node_disjoint;
        qtest prop_node_protect_never_beats_edge_protect;
      ] );
    ( "ext.shared_protection",
      [
        Alcotest.test_case "shares corridor" `Quick test_shared_backup_shares_corridor;
        Alcotest.test_case "conflicting primaries" `Quick
          test_shared_backup_conflicting_primaries_not_shared;
        Alcotest.test_case "activation steals slot" `Quick
          test_shared_backup_activation_steals_slot;
        Alcotest.test_case "admit atomic" `Quick test_shared_backup_admit_is_atomic;
        Alcotest.test_case "rejects overlap" `Quick test_shared_backup_rejects_overlap;
        qtest prop_shared_protection_conserves;
      ] );
  ]
