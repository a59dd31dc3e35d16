(* Tests for the paper's algorithms: Section 3.3 approximation, Section 4
   load-aware routing, the exact solvers, baselines and the router facade. *)

module Net = Rr_wdm.Network
module Conv = Rr_wdm.Conversion
module Slp = Rr_wdm.Semilightpath
module RR = Robust_routing
module Types = RR.Types
module Rng = Rr_util.Rng

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* One-shot policy calls, each on a fresh admission context. *)
let ctx = RR.Router.context

let approx net ~source ~target =
  RR.Router.route (ctx net) RR.Router.Cost_approx ~source ~target

let detailed net ~source ~target =
  let c = ctx net in
  RR.Approx_cost.route_detailed ~workspace:(RR.Router.workspace c)
    (RR.Router.cache c) ~source ~target

let mincog net ~source ~target =
  let c = ctx net in
  RR.Mincog.route ~workspace:(RR.Router.workspace c) (RR.Router.cache c)
    ~source ~target

let min_bottleneck net ~source ~target =
  let c = ctx net in
  RR.Mincog.min_bottleneck ~workspace:(RR.Router.workspace c)
    (RR.Router.cache c) ~source ~target

let load_cost net ~source ~target =
  let c = ctx net in
  RR.Approx_load_cost.route ~workspace:(RR.Router.workspace c)
    (RR.Router.cache c) ~source ~target

let link ?(lambdas = [ 0; 1 ]) ?(weight = fun _ -> 1.0) u v =
  { Net.ls_src = u; ls_dst = v; ls_lambdas = lambdas; ls_weight = weight }

(* Trap topology as a WDM network: the two-step baseline must fail here
   while the Suurballe-based algorithm succeeds. *)
let trap_net () =
  Net.create ~n_nodes:4 ~n_wavelengths:2
    ~links:
      [
        link 0 1;                       (* e0 spine *)
        link 1 2;                       (* e1 spine *)
        link 2 3;                       (* e2 spine *)
        link 0 2 ~weight:(fun _ -> 3.0); (* e3 detour *)
        link 1 3 ~weight:(fun _ -> 3.0); (* e4 detour *)
      ]
    ~converters:(fun _ -> Conv.Full 0.5)

let random_net ?(n = 8) ?(w = 3) ?(density = 1.0) seed =
  let rng = Rng.create seed in
  let topo = Rr_topo.Random_topo.degree_bounded ~rng ~n ~degree:3 in
  Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:w ~lambda_density:density topo

(* Randomly pre-load a network to create interesting residual structure. *)
let preload rng net fraction =
  for e = 0 to Net.n_links net - 1 do
    Rr_util.Bitset.iter
      (fun l -> if Rng.uniform rng < fraction then Net.allocate net e l)
      (Net.lambdas net e)
  done

(* ------------------------------------------------------------------ *)
(* Types                                                                *)

let test_types_costs () =
  let net = trap_net () in
  let p = { Slp.hops = [ { Slp.edge = 0; lambda = 0 }; { Slp.edge = 1; lambda = 0 } ] } in
  let b = { Slp.hops = [ { Slp.edge = 3; lambda = 1 } ] } in
  let protected_sol = { Types.primary = p; backup = Some b } in
  let unprotected_sol = { Types.primary = p; backup = None } in
  check Alcotest.(float 1e-9) "primary" 2.0 (Types.primary_cost net protected_sol);
  check Alcotest.(float 1e-9) "backup" 3.0 (Types.backup_cost net protected_sol);
  check Alcotest.(float 1e-9) "total" 5.0 (Types.total_cost net protected_sol);
  check Alcotest.(float 1e-9) "unprotected backup 0" 0.0 (Types.backup_cost net unprotected_sol)

let test_types_validate_disjointness () =
  let net = trap_net () in
  let p = { Slp.hops = [ { Slp.edge = 0; lambda = 0 }; { Slp.edge = 4; lambda = 0 } ] } in
  let b_shares = { Slp.hops = [ { Slp.edge = 0; lambda = 1 }; { Slp.edge = 4; lambda = 1 } ] } in
  checkb "shared link rejected" true
    (match Types.validate net { src = 0; dst = 3 } { Types.primary = p; backup = Some b_shares } with
     | Error e -> e = "primary and backup share a physical link"
     | Ok () -> false)

let test_types_allocate_atomic () =
  let net = trap_net () in
  (* backup's only hop made unavailable: allocation must roll back the
     already-allocated primary *)
  Rr_wdm.Network.allocate net 3 1;
  let p = { Slp.hops = [ { Slp.edge = 0; lambda = 0 } ] } in
  let b = { Slp.hops = [ { Slp.edge = 3; lambda = 1 } ] } in
  let sol = { Types.primary = p; backup = Some b } in
  let before = Rr_wdm.Network.total_in_use net in
  (try Types.allocate net sol with Invalid_argument _ -> ());
  check Alcotest.int "no partial allocation" before (Rr_wdm.Network.total_in_use net)

(* ------------------------------------------------------------------ *)
(* Approx_cost (Section 3.3)                                            *)

let test_approx_trap () =
  let net = trap_net () in
  match approx net ~source:0 ~target:3 with
  | Error _ -> Alcotest.fail "approx must find the disjoint pair"
  | Ok sol ->
    checkb "valid" true (Types.validate net { src = 0; dst = 3 } sol = Ok ());
    check Alcotest.(float 1e-9) "total cost" 8.0 (Types.total_cost net sol)

let test_approx_none_on_bridge () =
  let net =
    Net.create ~n_nodes:3 ~n_wavelengths:2
      ~links:[ link 0 1; link 1 2 ]
      ~converters:(fun _ -> Conv.Full 0.0)
  in
  checkb "no pair on a path graph" true
    (approx net ~source:0 ~target:2 = Error Types.No_disjoint_pair)

let test_approx_lemma2_refinement () =
  (* Lemma 2: refined cost <= auxiliary pair weight (full conversion). *)
  for seed = 1 to 20 do
    let net = random_net seed in
    match detailed net ~source:0 ~target:(Net.n_nodes net - 1) with
    | Error _ -> ()
    | Ok d ->
      checkb
        (Printf.sprintf "seed %d refinement no worse" seed)
        true
        (d.refined_cost <= d.aux_weight +. 1e-6)
  done

let prop_approx_solutions_valid =
  QCheck.Test.make ~name:"approx solutions validate and are edge-disjoint" ~count:80
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 31) in
      let net = random_net (seed + 31) in
      preload rng net 0.2;
      let target = Net.n_nodes net - 1 in
      match approx net ~source:0 ~target with
      | Error _ -> true
      | Ok sol -> Types.validate net { src = 0; dst = target } sol = Ok ())

let prop_theorem2_ratio =
  QCheck.Test.make
    ~name:"Theorem 2: approx <= 2x exact under the conversion-cost premise"
    ~count:40 QCheck.small_int (fun seed ->
      let net = random_net ~n:7 (seed + 101) in
      let target = Net.n_nodes net - 1 in
      match
        ( RR.Exact.route net ~source:0 ~target,
          detailed net ~source:0 ~target )
      with
      | Some (_, opt), Ok d ->
        opt > 0.0 && d.refined_cost <= (2.0 *. opt) +. 1e-6
      | None, Error _ -> true
      | None, Ok _ -> false (* approx cannot out-find the exact solver *)
      | Some _, Error _ ->
        (* The auxiliary-graph heuristic may miss pairs the exact solver
           finds (it commits to one Suurballe solution); tolerated. *)
        true)

let prop_approx_agrees_on_feasibility =
  QCheck.Test.make ~name:"no disjoint pair in G -> approx returns None" ~count:60
    QCheck.small_int (fun seed ->
      let net = random_net ~n:6 (seed + 400) in
      let g = Net.graph net in
      let target = Net.n_nodes net - 1 in
      let count =
        Rr_graph.Flow.disjoint_paths_count
          ~enabled:(fun e -> Net.has_available net e)
          g ~source:0 ~target
      in
      let approx = approx net ~source:0 ~target in
      if count < 2 then Result.is_error approx else true)

(* ------------------------------------------------------------------ *)
(* Exact                                                                *)

let test_exact_ring () =
  let net =
    Rr_topo.Fitout.fit_out ~rng:(Rng.create 3) ~n_wavelengths:2
      (Rr_topo.Reference.ring 6)
  in
  match RR.Exact.route net ~source:0 ~target:3 with
  | None -> Alcotest.fail "ring always has two disjoint paths"
  | Some (sol, c) ->
    (* two arcs of 3 hops each, unit weights, no conversions needed *)
    check Alcotest.(float 1e-9) "cost" 6.0 c;
    checkb "valid" true (Types.validate net { src = 0; dst = 3 } sol = Ok ())

let test_exact_beats_or_ties_everyone () =
  for seed = 1 to 15 do
    let net = random_net ~n:7 (seed + 777) in
    let target = Net.n_nodes net - 1 in
    match RR.Exact.route net ~source:0 ~target with
    | None -> ()
    | Some (_, opt) ->
      List.iter
        (fun policy ->
          match RR.Router.route (ctx net) policy ~source:0 ~target with
          | Error _ -> ()
          | Ok sol ->
            let c = Types.total_cost net sol in
            checkb
              (Printf.sprintf "seed %d: exact <= %s" seed (RR.Router.policy_name policy))
              true
              (opt <= c +. 1e-6))
        [ RR.Router.Cost_approx; RR.Router.Two_step; RR.Router.First_fit ]
  done

let test_exact_budget () =
  let net = random_net ~n:8 1 in
  Alcotest.check_raises "budget exceeded" RR.Exact.Budget_exceeded (fun () ->
      ignore (RR.Exact.enumerate_simple_paths ~max_paths:1 net ~source:0 ~target:4))

let prop_exact_matches_ilp =
  QCheck.Test.make ~name:"combinatorial exact = paper ILP on tiny instances"
    ~count:12 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 2000) in
      let topo = Rr_topo.Reference.ring 4 in
      let net = Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:2 ~lambda_density:0.8 topo in
      match
        (RR.Exact.route net ~source:0 ~target:2, RR.Ilp_exact.route net ~source:0 ~target:2)
      with
      | None, None -> true
      | Some (_, a), Some (_, b) -> Float.abs (a -. b) < 1e-5
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Mincog (Section 4.1)                                                 *)

let test_mincog_prefers_light_links () =
  (* Two parallel 2-hop routes; load one of them and MinCog must route the
     pair around... there are only two routes, so instead check the
     bottleneck equals the exact minimum. *)
  let net = trap_net () in
  (* load the spine link e1 heavily *)
  Net.allocate net 1 0;
  (match mincog net ~source:0 ~target:3 with
   | Error _ -> Alcotest.fail "pair expected"
   | Ok r ->
     (* Optimal pair avoiding e1 entirely: {e0,e4} and {e3,e2} with
        bottleneck 0. *)
     check Alcotest.(float 1e-9) "bottleneck avoids loaded link" 0.0 r.bottleneck);
  match min_bottleneck net ~source:0 ~target:3 with
  | None -> Alcotest.fail "exact bottleneck expected"
  | Some (b, _) -> check Alcotest.(float 1e-9) "exact bottleneck" 0.0 b

let test_mincog_theta_bounds () =
  let net = trap_net () in
  let lo, hi = RR.Mincog.theta_bounds net in
  check Alcotest.(float 1e-9) "fresh net lo" 0.5 lo;
  check Alcotest.(float 1e-9) "fresh net hi" 0.5 hi;
  Net.allocate net 0 0;
  let lo2, hi2 = RR.Mincog.theta_bounds net in
  check Alcotest.(float 1e-9) "after load lo" 0.5 lo2;
  check Alcotest.(float 1e-9) "after load hi" 1.0 hi2

let prop_mincog_ratio_theorem3 =
  QCheck.Test.make
    ~name:"Theorem 3: geometric bottleneck < 3x exact (+ one level slack)"
    ~count:40 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 55) in
      let net = random_net (seed + 55) in
      preload rng net 0.35;
      let target = Net.n_nodes net - 1 in
      match
        (mincog net ~source:0 ~target, min_bottleneck net ~source:0 ~target)
      with
      | Error _, None -> true
      | Ok r, Some (bstar, _) ->
        (* ratio on the threshold scale; guard the zero-load case *)
        if bstar <= 1e-9 then r.bottleneck <= 1.0
        else r.bottleneck /. bstar < 3.0 +. 1e-6
      | Ok _, None -> false
      | Error _, Some _ -> false)

let prop_mincog_solutions_valid =
  QCheck.Test.make ~name:"mincog solutions validate" ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 66) in
      let net = random_net (seed + 66) in
      preload rng net 0.3;
      let target = Net.n_nodes net - 1 in
      match mincog net ~source:0 ~target with
      | Error _ -> true
      | Ok r -> Types.validate net { src = 0; dst = target } r.solution = Ok ())

(* ------------------------------------------------------------------ *)
(* Approx_load_cost (Section 4.2)                                       *)

let prop_load_cost_valid_and_bounded =
  QCheck.Test.make
    ~name:"load-cost solutions validate; bottleneck within phase-1 threshold"
    ~count:60 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 91) in
      let net = random_net (seed + 91) in
      preload rng net 0.3;
      let target = Net.n_nodes net - 1 in
      match load_cost net ~source:0 ~target with
      | Error _ -> true
      | Ok r ->
        Types.validate net { src = 0; dst = target } r.solution = Ok ()
        && r.bottleneck < r.theta +. 1e-9)

let test_load_cost_cheaper_than_load_only () =
  (* Phase 2 optimises cost within the same threshold, so it should not be
     more expensive than the pure congestion route on average. *)
  let improvements = ref 0 and comparisons = ref 0 in
  for seed = 1 to 25 do
    let rng = Rng.create (seed * 13) in
    let net = random_net (seed * 13) in
    preload rng net 0.3;
    let target = Net.n_nodes net - 1 in
    match
      (mincog net ~source:0 ~target, load_cost net ~source:0 ~target)
    with
    | Ok a, Ok b ->
      incr comparisons;
      let ca = Types.total_cost net a.RR.Mincog.solution in
      let cb = Types.total_cost net b.RR.Approx_load_cost.solution in
      if cb <= ca +. 1e-6 then incr improvements
    | _ -> ()
  done;
  checkb "load+cost at least as cheap in most runs" true
    (!comparisons > 5 && float_of_int !improvements >= 0.7 *. float_of_int !comparisons)

(* ------------------------------------------------------------------ *)
(* Baselines                                                            *)

let test_two_step_fails_on_trap () =
  let net = trap_net () in
  checkb "two-step trapped" true (RR.Baselines.two_step ~workspace:(Rr_util.Workspace.create ()) net ~source:0 ~target:3 = None);
  checkb "suurballe-based approx succeeds" true
    (Result.is_ok (approx net ~source:0 ~target:3))

let test_unprotected_single_path () =
  let net = trap_net () in
  match RR.Baselines.unprotected net ~source:0 ~target:3 with
  | None -> Alcotest.fail "path expected"
  | Some sol ->
    checkb "no backup" true (sol.Types.backup = None);
    check Alcotest.(float 1e-9) "optimal single path" 3.0 (Types.total_cost net sol)

let test_first_fit_valid () =
  for seed = 1 to 10 do
    let net = random_net (seed + 300) in
    let target = Net.n_nodes net - 1 in
    match RR.Baselines.first_fit net ~source:0 ~target with
    | None -> ()
    | Some sol ->
      checkb
        (Printf.sprintf "seed %d first-fit valid" seed)
        true
        (Types.validate net { src = 0; dst = target } sol = Ok ())
  done

let test_rwa_variants_valid () =
  for seed = 1 to 10 do
    let rng = Rng.create (seed + 600) in
    let net = random_net (seed + 600) in
    preload rng net 0.25;
    let target = Net.n_nodes net - 1 in
    List.iter
      (fun (name, route) ->
        match route net ~source:0 ~target with
        | None -> ()
        | Some sol ->
          checkb
            (Printf.sprintf "seed %d %s valid" seed name)
            true
            (Types.validate net { src = 0; dst = target } sol = Ok ()))
      [
        ("most-used", RR.Baselines.most_used_fit ?workspace:None ?obs:None);
        ("least-used", RR.Baselines.least_used_fit ?workspace:None ?obs:None);
      ]
  done

let test_most_used_packs () =
  (* On an idle two-wavelength ring, most-used assigns λ0 to the first
     connection and then reuses λ0 for the disjoint second path, while
     least-used alternates after the first allocation exists. *)
  let net =
    Rr_topo.Fitout.fit_out ~rng:(Rng.create 2) ~n_wavelengths:4
      (Rr_topo.Reference.ring 6)
  in
  Net.allocate net 0 2 (* make λ2 the most used *);
  (match RR.Baselines.most_used_fit net ~source:1 ~target:3 with
   | None -> Alcotest.fail "route expected"
   | Some sol ->
     List.iter
       (fun h -> check Alcotest.int "packs onto λ2" 2 h.Slp.lambda)
       sol.Types.primary.Slp.hops);
  match RR.Baselines.least_used_fit net ~source:1 ~target:3 with
  | None -> Alcotest.fail "route expected"
  | Some sol ->
    List.iter
      (fun h -> checkb "spreads away from λ2" true (h.Slp.lambda <> 2))
      sol.Types.primary.Slp.hops

(* ------------------------------------------------------------------ *)
(* Router facade                                                        *)

let test_router_policy_names_roundtrip () =
  List.iter
    (fun p ->
      check
        Alcotest.(option string)
        "roundtrip"
        (Some (RR.Router.policy_name p))
        (Option.map RR.Router.policy_name (RR.Router.policy_of_string (RR.Router.policy_name p))))
    RR.Router.all_policies;
  check Alcotest.bool "unknown" true (RR.Router.policy_of_string "nope" = None)

let test_router_admit_allocates () =
  let net = trap_net () in
  let before = Net.total_in_use net in
  match RR.Router.admit_result (ctx net) RR.Router.Cost_approx ~source:0 ~target:3 with
  | Error _ -> Alcotest.fail "admission expected"
  | Ok sol ->
    let expected =
      Slp.length sol.Types.primary
      + match sol.Types.backup with Some b -> Slp.length b | None -> 0
    in
    check Alcotest.int "wavelengths reserved" (before + expected) (Net.total_in_use net);
    (* Release returns to the initial state. *)
    Types.release net sol;
    check Alcotest.int "release restores" before (Net.total_in_use net)

let test_router_admit_respects_capacity () =
  (* Admit until blocked; the network must never over-allocate. *)
  let net = trap_net () in
  let admitted = ref 0 in
  let continue = ref true in
  let c = ctx net in
  while !continue do
    match RR.Router.admit_result c RR.Router.Cost_approx ~source:0 ~target:3 with
    | Ok _ -> incr admitted
    | Error _ -> continue := false
  done;
  (* Each admission takes 4 links x 1 λ; with W=2 there is capacity for
     exactly 2 disjoint-pair admissions. *)
  check Alcotest.int "two admissions fit" 2 !admitted

let test_router_blocked_cause () =
  (* The cause is a value: the same with observability off or on.  Its
     journal code and reply name come from one table. *)
  let run obs =
    let c = ctx (trap_net ()) in
    List.init 3 (fun _ ->
        Result.map ignore
          (RR.Router.admit_result ?obs c RR.Router.Cost_approx ~source:0
             ~target:3))
  in
  let expected = [ Ok (); Ok (); Error Types.No_disjoint_pair ] in
  checkb "obs off" true (run None = expected);
  checkb "obs on" true (run (Some (Rr_obs.Obs.create ())) = expected);
  List.iter
    (fun (b, code, name) ->
      check Alcotest.int (name ^ " code") code (Types.blocked_code b);
      check Alcotest.string (name ^ " name") name (Types.blocked_name b);
      checkb (name ^ " decodes") true (Types.blocked_of_code code = Some b))
    [
      (Types.No_disjoint_pair, 1, "no_disjoint_pair");
      (Types.No_wavelength, 2, "no_wavelength");
      (Types.No_route, 3, "no_route");
      (Types.Validator "", 4, "validator_reject");
    ];
  checkb "code 0 decodes to nothing" true (Types.blocked_of_code 0 = None)

let prop_admit_matches_route_cost =
  QCheck.Test.make ~name:"admit returns the same solution route computes"
    ~count:40 QCheck.small_int (fun seed ->
      let net = random_net (seed + 811) in
      let target = Net.n_nodes net - 1 in
      let planned = RR.Router.route (ctx net) RR.Router.Cost_approx ~source:0 ~target in
      let admitted =
        RR.Router.admit_result (ctx net) RR.Router.Cost_approx ~source:0 ~target
      in
      match (planned, admitted) with
      | Error _, Error _ -> true
      | Ok a, Ok b -> Types.total_cost net a = Types.total_cost net b
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Partial path protection and restoration                              *)

module Protect = RR.Partial_protect
module Book = RR.Connections
module Bitset = Rr_util.Bitset

(* A spine 0-1-2-3 whose only exposed hop (e1) has a dedicated detour
   through node 4 — and no full edge-disjoint 0->3 pair exists (every
   route uses e0 and e2), so segmentation is the only protection. *)
let seg_net () =
  Net.create ~n_nodes:5 ~n_wavelengths:2
    ~links:
      [
        link 0 1;                        (* e0 spine *)
        link 1 2;                        (* e1 spine, exposed *)
        link 2 3;                        (* e2 spine *)
        link 1 4 ~weight:(fun _ -> 2.0); (* e3 detour out *)
        link 4 2 ~weight:(fun _ -> 2.0); (* e4 detour back *)
      ]
    ~converters:(fun _ -> Conv.Full 0.5)

let only links = Protect.Only (List.fold_left Bitset.add (Bitset.create 8) links)

let test_partial_exposure_of_rates () =
  checkb "all positive -> All" true
    (Protect.exposure_of_rates [| 0.1; 0.2 |] = Protect.All);
  match Protect.exposure_of_rates [| 0.0; 0.2; 0.0 |] with
  | Protect.All -> Alcotest.fail "hardened links must not be exposed"
  | Protect.Only s ->
    checkb "exposed member" true (Bitset.mem s 1);
    checkb "hardened excluded" true
      (not (Bitset.mem s 0) && not (Bitset.mem s 2))

let test_partial_admit_segmented () =
  let net = seg_net () in
  match Protect.admit ~exposure:(only [ 1 ]) (ctx net) ~source:0 ~target:3 with
  | None -> Alcotest.fail "segmented admission expected"
  | Some (primary, protection) ->
    check Alcotest.(list int) "primary is the spine" [ 0; 1; 2 ]
      (Slp.links primary);
    (match protection with
     | Protect.Segments [ seg ] ->
       check Alcotest.int "run start" 1 seg.Protect.seg_lo;
       check Alcotest.int "run end" 1 seg.Protect.seg_hi;
       check Alcotest.(list int) "detour through node 4" [ 3; 4 ]
         (Slp.links seg.Protect.seg_detour);
       (* the spliced working path is ready to validate today *)
       let spliced = Protect.splice primary seg in
       check Alcotest.(list int) "splice surgery" [ 0; 3; 4; 2 ]
         (Slp.links spliced)
     | _ -> Alcotest.fail "expected exactly one segment");
    check Alcotest.int "backup wavelength-links" 2
      (Protect.backup_hops protection);
    checkb "protection cost positive" true (Protect.cost net protection > 0.0);
    (* primary (3 hops) + detour (2 hops) are allocated, nothing else *)
    check Alcotest.int "allocation" 5 (Net.total_in_use net)

let test_partial_admit_unexposed_needs_no_backup () =
  let net = seg_net () in
  match Protect.admit ~exposure:(only []) (ctx net) ~source:0 ~target:3 with
  | Some (primary, Protect.Segments []) ->
    check Alcotest.int "spine only" 3 (List.length primary.Slp.hops);
    check Alcotest.int "zero backup hops" 0
      (Protect.backup_hops (Protect.Segments []));
    check Alcotest.int "primary alone allocated" 3 (Net.total_in_use net)
  | Some _ -> Alcotest.fail "no exposed hop must mean no backup"
  | None -> Alcotest.fail "admission expected"

let test_partial_admit_falls_back_to_full () =
  (* On the trap there is no detour for the middle spine hop (links are
     directed), so segmentation cannot cover the exposure and the classic
     edge-disjoint pair takes over. *)
  let net = trap_net () in
  match Protect.admit ~exposure:(only [ 1 ]) (ctx net) ~source:0 ~target:3 with
  | None -> Alcotest.fail "fallback admission expected"
  | Some (primary, Protect.Full b) ->
    checkb "pair is edge-disjoint" true (Slp.edge_disjoint primary b);
    checkb "backup validates" true
      (Slp.validate ~require_available:false net ~source:0 ~target:3 b
       = Ok ())
  | Some _ -> Alcotest.fail "expected the full-pair fallback"

(* The spine 0-1-2-3 again, its exposed hop e1 with a two-hop detour
   through node 4, and a two-hop full backup 0-5-3: the detour's BFS hop
   bound already equals the full backup's hop count, so segmentation
   cannot pay and the hop bound drops the plan before its detour
   search. *)
let bound_net () =
  Net.create ~n_nodes:6 ~n_wavelengths:2
    ~links:
      [
        link 0 1;                        (* e0 spine *)
        link 1 2;                        (* e1 spine, exposed *)
        link 2 3;                        (* e2 spine *)
        link 1 4 ~weight:(fun _ -> 2.0); (* e3 detour out *)
        link 4 2 ~weight:(fun _ -> 2.0); (* e4 detour back *)
        link 0 5 ~weight:(fun _ -> 3.0); (* e5 full backup *)
        link 5 3 ~weight:(fun _ -> 3.0); (* e6 full backup *)
      ]
    ~converters:(fun _ -> Conv.Full 0.5)

let used_sets net = List.init (Net.n_links net) (fun e -> Bitset.to_list (Net.used net e))

let test_partial_hop_bound_falls_back () =
  let net = bound_net () in
  let obs = Rr_obs.Obs.create () in
  let counter name = Rr_obs.Metrics.counter (Rr_obs.Obs.metrics obs) name in
  let layered_calls () =
    match List.assoc_opt "kernel.layered" (Rr_obs.Metrics.items (Rr_obs.Obs.metrics obs)) with
    | Some (Rr_obs.Metrics.Histogram h) -> h.Rr_obs.Metrics.count
    | _ -> 0
  in
  match Protect.admit ~obs ~exposure:(only [ 1 ]) (ctx net) ~source:0 ~target:3 with
  | Some (primary, Protect.Full b) ->
    check Alcotest.(list int) "primary is the spine" [ 0; 1; 2 ] (Slp.links primary);
    check Alcotest.(list int) "full backup" [ 5; 6 ] (Slp.links b);
    check Alcotest.int "bound fired" 1 (counter "survive.partial.hop_bound");
    check Alcotest.int "fell back" 1 (counter "survive.partial.full_fallback");
    check Alcotest.int "not segmented" 0 (counter "survive.partial.segmented");
    (* two refines for the full pair and the unprotected primary: no
       detour search ran *)
    check Alcotest.int "layered searches" 3 (layered_calls ());
    (* exactly the pair is allocated: nothing of the dropped plan stays *)
    let fresh = bound_net () in
    Slp.allocate fresh primary;
    Slp.allocate fresh b;
    check Alcotest.(list (list int)) "allocation state" (used_sets fresh) (used_sets net)
  | Some _ -> Alcotest.fail "expected the full-pair fallback"
  | None -> Alcotest.fail "admission expected"

(* The bound never exceeds the hops of the detour the layered search
   returns under the same filter, over the golden's residual states and
   converter kinds; an unreachable bound means no detour at all. *)
let prop_hop_bound_below_detour =
  let golden = Rr_check.Layered_golden.(List.length kinds) in
  QCheck.Test.make ~name:"detour hop bound <= hops of Layered.optimal" ~count:40
    QCheck.small_int (fun seed ->
      let w = List.nth [ 1; 4; 16 ] (seed mod 3) in
      let kind = List.nth Rr_check.Layered_golden.kinds (seed mod golden) in
      let net, enabled, requests = Rr_check.Layered_golden.scenario w kind (seed + 900) in
      let link_enabled = Array.get enabled in
      List.for_all
        (fun (source, target) ->
          let bound = Protect.detour_hop_bound net ~link_enabled ~source ~target in
          match Rr_wdm.Layered.optimal ~link_enabled net ~source ~target with
          | Some (p, _) -> bound <= Slp.length p
          | None -> true)
        requests)

(* Book one partially protected 0->3 connection, fail [links] and run
   one restoration pass: the connection and its outcome, if it was hit. *)
let restore_after net ~exposed links =
  match Protect.admit ~exposure:(only exposed) (ctx net) ~source:0 ~target:3 with
  | None -> Alcotest.fail "admission expected"
  | Some (primary, protection) ->
    let book = Book.create (ctx net) in
    let c =
      Book.add book ~id:0 ~request:{ Types.src = 0; dst = 3 }
        ~policy:RR.Router.Cost_approx () (Book.Partial (primary, protection))
    in
    let cut = links c in
    List.iter (Net.fail_link net) cut;
    let outcome = ref None in
    Book.fail book ~links:cut ~req:(fun () -> 0)
      ~on:(fun c o -> outcome := Some (c, o));
    (book, c, !outcome)

let test_restore_splices_segment () =
  let net = seg_net () in
  match restore_after net ~exposed:[ 1 ] (fun _ -> [ 1 ]) with
  | _, _, Some (c, Book.Switched) ->
    check Alcotest.(list int) "spliced working path" [ 0; 3; 4; 2 ]
      (Slp.links c.Book.working);
    checkb "runs unprotected after the splice" true
      (c.Book.protection = Protect.Unprotected);
    (* dead hop e1 was released, detour absorbed into the working path *)
    check Alcotest.int "books after splice" 4 (Net.total_in_use net)
  | _, _, Some (_, Book.Rerouted) -> Alcotest.fail "splice expected, not reroute"
  | _, _, Some (_, (Book.Dropped | Book.Endpoint_down)) | _, _, None ->
    Alcotest.fail "splice expected, not drop"

let test_restore_drops_when_residual_exhausted () =
  let net = seg_net () in
  (* Fell both the exposed hop and its detour: nothing covers the failure
     and no residual 0->3 route remains. *)
  match restore_after net ~exposed:[ 1 ] (fun _ -> [ 1; 4 ]) with
  | book, _, Some (_, Book.Dropped) ->
    check Alcotest.int "every wavelength returned" 0 (Net.total_in_use net);
    check Alcotest.int "dropped from the book" 0 (Book.length book)
  | _ -> Alcotest.fail "drop expected: exposure and detour both dead"

let test_restore_switches_to_full_backup () =
  let net = trap_net () in
  let primary_hop (c : unit Book.conn) =
    match Slp.links c.working with
    | e :: _ -> [ e ]
    | [] -> Alcotest.fail "primary has hops"
  in
  let backup = ref None in
  match
    restore_after net ~exposed:[ 1 ] (fun c ->
        (match c.protection with
         | Protect.Full b -> backup := Some b
         | _ -> Alcotest.fail "trap admits via the full-pair fallback");
        primary_hop c)
  with
  | _, _, Some (c, Book.Switched) ->
    check Alcotest.(list int) "promoted the reserved backup"
      (Slp.links (Option.get !backup)) (Slp.links c.Book.working)
  | _ -> Alcotest.fail "intact backup must absorb the failure"

let suite =
  [
    ( "core.types",
      [
        Alcotest.test_case "costs" `Quick test_types_costs;
        Alcotest.test_case "disjointness" `Quick test_types_validate_disjointness;
        Alcotest.test_case "allocate atomic" `Quick test_types_allocate_atomic;
      ] );
    ( "core.approx_cost",
      [
        Alcotest.test_case "trap fixture" `Quick test_approx_trap;
        Alcotest.test_case "bridge infeasible" `Quick test_approx_none_on_bridge;
        Alcotest.test_case "Lemma 2 refinement" `Quick test_approx_lemma2_refinement;
        qtest prop_approx_solutions_valid;
        qtest prop_theorem2_ratio;
        qtest prop_approx_agrees_on_feasibility;
      ] );
    ( "core.exact",
      [
        Alcotest.test_case "ring" `Quick test_exact_ring;
        Alcotest.test_case "dominates heuristics" `Quick test_exact_beats_or_ties_everyone;
        Alcotest.test_case "budget" `Quick test_exact_budget;
        qtest prop_exact_matches_ilp;
      ] );
    ( "core.mincog",
      [
        Alcotest.test_case "prefers light links" `Quick test_mincog_prefers_light_links;
        Alcotest.test_case "theta bounds" `Quick test_mincog_theta_bounds;
        qtest prop_mincog_ratio_theorem3;
        qtest prop_mincog_solutions_valid;
      ] );
    ( "core.load_cost",
      [
        qtest prop_load_cost_valid_and_bounded;
        Alcotest.test_case "cheaper than load-only" `Quick test_load_cost_cheaper_than_load_only;
      ] );
    ( "core.baselines",
      [
        Alcotest.test_case "two-step trapped" `Quick test_two_step_fails_on_trap;
        Alcotest.test_case "unprotected" `Quick test_unprotected_single_path;
        Alcotest.test_case "first-fit valid" `Quick test_first_fit_valid;
        Alcotest.test_case "rwa variants valid" `Quick test_rwa_variants_valid;
        Alcotest.test_case "most-used packs" `Quick test_most_used_packs;
      ] );
    ( "core.router",
      [
        Alcotest.test_case "policy names" `Quick test_router_policy_names_roundtrip;
        Alcotest.test_case "admit allocates" `Quick test_router_admit_allocates;
        Alcotest.test_case "admit respects capacity" `Quick test_router_admit_respects_capacity;
        Alcotest.test_case "blocked cause" `Quick test_router_blocked_cause;
        qtest prop_admit_matches_route_cost;
      ] );
    ( "core.survivability",
      [
        Alcotest.test_case "exposure from rates" `Quick
          test_partial_exposure_of_rates;
        Alcotest.test_case "segmented admission" `Quick
          test_partial_admit_segmented;
        Alcotest.test_case "unexposed needs no backup" `Quick
          test_partial_admit_unexposed_needs_no_backup;
        Alcotest.test_case "full-pair fallback" `Quick
          test_partial_admit_falls_back_to_full;
        Alcotest.test_case "hop bound skips a plan that cannot pay" `Quick
          test_partial_hop_bound_falls_back;
        qtest prop_hop_bound_below_detour;
        Alcotest.test_case "restore splices segment" `Quick
          test_restore_splices_segment;
        Alcotest.test_case "restore drops on exhaustion" `Quick
          test_restore_drops_when_residual_exhausted;
        Alcotest.test_case "restore promotes full backup" `Quick
          test_restore_switches_to_full_backup;
      ] );
  ]
