(* Tests for the WDM network model, semilightpaths, the layered-graph
   optimal semilightpath search, and the auxiliary-graph constructions. *)

module Net = Rr_wdm.Network
module Conv = Rr_wdm.Conversion
module Slp = Rr_wdm.Semilightpath
module Layered = Rr_wdm.Layered
module Aux = Rr_wdm.Auxiliary
module Bitset = Rr_util.Bitset
module Rng = Rr_util.Rng

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

let link ?(lambdas = [ 0; 1 ]) ?(weight = fun _ -> 1.0) u v =
  { Net.ls_src = u; ls_dst = v; ls_lambdas = lambdas; ls_weight = weight }

(* A 4-node fixture in the spirit of the paper's Figure 1:
   0 -> 1, 1 -> 3, 0 -> 2, 2 -> 3, 1 -> 2, two wavelengths. *)
let fig1_net ?(converter = fun _ -> Conv.Full 0.5) () =
  Net.create ~n_nodes:4 ~n_wavelengths:2
    ~links:
      [
        link 0 1;                                  (* e0 *)
        link 1 3;                                  (* e1 *)
        link 0 2 ~lambdas:[ 0 ];                   (* e2 *)
        link 2 3 ~lambdas:[ 1 ];                   (* e3 *)
        link 1 2;                                  (* e4 *)
      ]
    ~converters:converter

(* ------------------------------------------------------------------ *)
(* Conversion                                                           *)

let test_conv_no_conversion () =
  checkb "same allowed" true (Conv.allowed Conv.No_conversion 1 1);
  checkb "diff disallowed" false (Conv.allowed Conv.No_conversion 0 1);
  check Alcotest.(option (float 0.0)) "same free" (Some 0.0) (Conv.cost Conv.No_conversion 1 1);
  check Alcotest.(option (float 0.0)) "diff none" None (Conv.cost Conv.No_conversion 0 1)

let test_conv_full () =
  let s = Conv.Full 2.5 in
  checkb "allowed" true (Conv.allowed s 0 3);
  check Alcotest.(option (float 0.0)) "cost" (Some 2.5) (Conv.cost s 0 3);
  check Alcotest.(option (float 0.0)) "identity free" (Some 0.0) (Conv.cost s 3 3);
  check Alcotest.(float 0.0) "max" 2.5 (Conv.max_cost s ~n_wavelengths:4)

let test_conv_range () =
  let s = Conv.Range (1, 1.0) in
  checkb "adjacent allowed" true (Conv.allowed s 2 3);
  checkb "far disallowed" false (Conv.allowed s 0 3);
  check Alcotest.(option (float 0.0)) "adjacent cost" (Some 1.0) (Conv.cost s 2 1)

let test_conv_table () =
  let m =
    [| [| Some 0.0; Some 3.0 |]; [| None; Some 0.0 |] |]
  in
  let s = Conv.Table m in
  checkb "0->1 allowed" true (Conv.allowed s 0 1);
  checkb "1->0 disallowed" false (Conv.allowed s 1 0);
  check Alcotest.(option (float 0.0)) "cost" (Some 3.0) (Conv.cost s 0 1);
  checkb "validate ok" true (Conv.validate s ~n_wavelengths:2 = Ok ())

let test_conv_table_validation () =
  let bad = Conv.Table [| [| Some 1.0 |] |] in
  checkb "nonzero diagonal rejected" true
    (match Conv.validate bad ~n_wavelengths:1 with Error _ -> true | Ok () -> false);
  let neg = Conv.Full (-1.0) in
  checkb "negative rejected" true
    (match Conv.validate neg ~n_wavelengths:2 with Error _ -> true | Ok () -> false)

(* ------------------------------------------------------------------ *)
(* Network                                                              *)

let test_net_structure () =
  let net = fig1_net () in
  check Alcotest.int "nodes" 4 (Net.n_nodes net);
  check Alcotest.int "links" 5 (Net.n_links net);
  check Alcotest.int "W" 2 (Net.n_wavelengths net);
  check Alcotest.(option int) "find link" (Some 4) (Net.find_link net 1 2);
  check Alcotest.(option int) "absent link" None (Net.find_link net 3 0);
  check Alcotest.(list int) "lambda set" [ 0 ] (Bitset.to_list (Net.lambdas net 2))

let test_net_create_validation () =
  Alcotest.check_raises "empty lambda set"
    (Invalid_argument "Network.create: link with empty Λ(e)") (fun () ->
      ignore
        (Net.create ~n_nodes:2 ~n_wavelengths:2
           ~links:[ { Net.ls_src = 0; ls_dst = 1; ls_lambdas = []; ls_weight = (fun _ -> 1.0) } ]
           ~converters:(fun _ -> Conv.Full 0.0)));
  Alcotest.check_raises "wavelength out of range"
    (Invalid_argument "Network.create: wavelength out of range") (fun () ->
      ignore
        (Net.create ~n_nodes:2 ~n_wavelengths:2
           ~links:[ link 0 1 ~lambdas:[ 2 ] ]
           ~converters:(fun _ -> Conv.Full 0.0)))

let test_net_allocate_release () =
  let net = fig1_net () in
  checkb "initially available" true (Net.is_available net 0 1);
  Net.allocate net 0 1;
  checkb "now used" false (Net.is_available net 0 1);
  checkb "other λ still free" true (Net.is_available net 0 0);
  check Alcotest.(float 1e-9) "link load" 0.5 (Net.link_load net 0);
  check Alcotest.(float 1e-9) "network load" 0.5 (Net.network_load net);
  Net.release net 0 1;
  checkb "released" true (Net.is_available net 0 1);
  check Alcotest.(float 1e-9) "load back to 0" 0.0 (Net.network_load net)

let test_net_double_allocate_raises () =
  let net = fig1_net () in
  Net.allocate net 0 0;
  Alcotest.check_raises "double allocation"
    (Invalid_argument "Network.allocate: wavelength in use") (fun () ->
      Net.allocate net 0 0);
  Alcotest.check_raises "release unused"
    (Invalid_argument "Network.release: wavelength not in use") (fun () ->
      Net.release net 1 0)

let test_net_copy_isolated () =
  let net = fig1_net () in
  let snapshot = Net.copy net in
  Net.allocate net 0 0;
  checkb "copy unaffected" true (Net.is_available snapshot 0 0);
  checkb "original used" false (Net.is_available net 0 0)

let test_net_failure () =
  let net = fig1_net () in
  Net.allocate net 0 0;
  Net.fail_link net 0;
  checkb "failed link not available" false (Net.has_available net 0);
  Alcotest.check_raises "allocate on failed"
    (Invalid_argument "Network.allocate: link failed") (fun () -> Net.allocate net 0 1);
  Net.repair_link net 0;
  checkb "usage preserved across failure" false (Net.is_available net 0 0);
  checkb "free λ back after repair" true (Net.is_available net 0 1)

(* The availability words against the Bitset definition, after random
   mutation sequences at one-word, two-word and three-word W. *)
let words_match_definition net =
  let w = Net.n_wavelengths net and nw = Net.words_per_link net in
  let words = Net.avail_words net in
  List.for_all
    (fun e ->
      let expect =
        if Net.is_failed net e then Bitset.create w
        else Bitset.diff (Net.lambdas net e) (Net.used net e)
      in
      Bitset.equal (Net.available net e) expect
      && Bool.equal (Net.has_available net e) (not (Bitset.is_empty expect))
      && List.for_all
           (fun l -> Bool.equal (Net.is_available net e l) (Bitset.mem expect l))
           (List.init w Fun.id)
      && List.for_all
           (fun k -> words.((e * nw) + k) = Bitset.word expect k)
           (List.init nw Fun.id))
    (List.init (Net.n_links net) Fun.id)

let prop_net_words_track_mutations =
  QCheck.Test.make ~name:"availability words = Λ(e) \\ used(e), empty when failed"
    ~count:60 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 4242) in
      let w = List.nth [ 16; 64; 130 ] (seed mod 3) in
      let n = 5 in
      let links =
        List.init 9 (fun _ ->
            let u = Rng.int rng n in
            let v = (u + 1 + Rng.int rng (n - 1)) mod n in
            let lambdas = List.filter (fun _ -> Rng.uniform rng < 0.6) (List.init w Fun.id) in
            link u v ~lambdas:(if List.is_empty lambdas then [ w - 1 ] else lambdas))
      in
      let net =
        ref (Net.create ~n_nodes:n ~n_wavelengths:w ~links ~converters:(fun _ -> Conv.Full 0.5))
      in
      let m = Net.n_links !net in
      let pick set =
        let l = Bitset.to_list set in
        if List.is_empty l then None else Some (List.nth l (Rng.int rng (List.length l)))
      in
      let copies = ref [] in
      let ok = ref (words_match_definition !net) in
      for _ = 1 to 80 do
        let e = Rng.int rng m in
        (match Rng.int rng 12 with
         | 0 | 1 | 2 | 3 ->
           Option.iter (Net.allocate !net e) (pick (Net.available !net e))
         | 4 | 5 | 6 -> Option.iter (Net.release !net e) (pick (Net.used !net e))
         | 7 | 8 -> Net.fail_link !net e
         | 9 -> Net.repair_link !net e
         | 10 -> Net.reset_usage !net
         | _ ->
           (* Mutate the copy from here on; the original must keep its words. *)
           copies := !net :: !copies;
           net := Net.copy !net);
        ok := !ok && words_match_definition !net
      done;
      !ok && List.for_all words_match_definition !copies)

let test_net_load_eq2 () =
  (* Eq. (2): ρ(e) = (|Λ(e)| - |Λ_avail(e)|) / |Λ(e)| *)
  let net =
    Net.create ~n_nodes:2 ~n_wavelengths:4
      ~links:[ link 0 1 ~lambdas:[ 0; 1; 2; 3 ] ]
      ~converters:(fun _ -> Conv.Full 0.0)
  in
  Net.allocate net 0 1;
  Net.allocate net 0 3;
  check Alcotest.(float 1e-9) "rho = 1/2" 0.5 (Net.link_load net 0);
  check Alcotest.(list int) "avail" [ 0; 2 ] (Bitset.to_list (Net.available net 0))

(* ------------------------------------------------------------------ *)
(* Semilightpath                                                        *)

let test_slp_cost_eq1 () =
  (* Path 0 -e0(λ0)-> 1 -e1(λ1)-> 3 with Full 0.5 conversion at node 1:
     C = w(e0,λ0) + w(e1,λ1) + c_1(λ0,λ1) = 1 + 1 + 0.5. *)
  let net = fig1_net () in
  let p = { Slp.hops = [ { Slp.edge = 0; lambda = 0 }; { Slp.edge = 1; lambda = 1 } ] } in
  check Alcotest.(float 1e-9) "traversal" 2.0 (Slp.traversal_cost net p);
  check Alcotest.(float 1e-9) "conversion" 0.5 (Slp.conversion_cost net p);
  check Alcotest.(float 1e-9) "Eq. (1)" 2.5 (Slp.cost net p);
  check
    Alcotest.(list (triple int int int))
    "switch settings" [ (1, 0, 1) ] (Slp.conversions net p);
  check Alcotest.int "source" 0 (Slp.source net p);
  check Alcotest.int "target" 3 (Slp.target net p)

let test_slp_no_conversion_same_lambda_free () =
  let net = fig1_net () in
  let p = { Slp.hops = [ { Slp.edge = 0; lambda = 1 }; { Slp.edge = 1; lambda = 1 } ] } in
  check Alcotest.(float 1e-9) "no conversion cost" 2.0 (Slp.cost net p);
  check Alcotest.(list (triple int int int)) "no switches" [] (Slp.conversions net p)

let test_slp_validate () =
  let net = fig1_net () in
  let good = { Slp.hops = [ { Slp.edge = 0; lambda = 0 }; { Slp.edge = 1; lambda = 1 } ] } in
  checkb "valid" true (Slp.validate net ~source:0 ~target:3 good = Ok ());
  let broken_chain =
    { Slp.hops = [ { Slp.edge = 0; lambda = 0 }; { Slp.edge = 3; lambda = 1 } ] }
  in
  checkb "broken chain" true
    (match Slp.validate net ~source:0 ~target:3 broken_chain with Error _ -> true | _ -> false);
  let bad_lambda = { Slp.hops = [ { Slp.edge = 2; lambda = 1 } ] } in
  checkb "λ not on link" true
    (match Slp.validate net ~source:0 ~target:2 bad_lambda with Error _ -> true | _ -> false);
  let empty = { Slp.hops = [] } in
  checkb "empty rejected" true
    (match Slp.validate net ~source:0 ~target:0 empty with Error _ -> true | _ -> false)

let test_slp_validate_unavailable () =
  let net = fig1_net () in
  Net.allocate net 0 0;
  let p = { Slp.hops = [ { Slp.edge = 0; lambda = 0 } ] } in
  checkb "unavailable rejected" true
    (match Slp.validate net ~source:0 ~target:1 p with Error _ -> true | _ -> false);
  checkb "ok when not required" true
    (Slp.validate ~require_available:false net ~source:0 ~target:1 p = Ok ())

let test_slp_validate_conversion_disallowed () =
  let net = fig1_net ~converter:(fun _ -> Conv.No_conversion) () in
  let p = { Slp.hops = [ { Slp.edge = 0; lambda = 0 }; { Slp.edge = 1; lambda = 1 } ] } in
  checkb "conversion rejected" true
    (match Slp.validate net ~source:0 ~target:3 p with Error _ -> true | _ -> false)

let test_slp_edge_disjoint () =
  let p1 = { Slp.hops = [ { Slp.edge = 0; lambda = 0 }; { Slp.edge = 1; lambda = 0 } ] } in
  let p2 = { Slp.hops = [ { Slp.edge = 2; lambda = 0 }; { Slp.edge = 3; lambda = 1 } ] } in
  let p3 = { Slp.hops = [ { Slp.edge = 0; lambda = 1 } ] } in
  checkb "disjoint" true (Slp.edge_disjoint p1 p2);
  checkb "shared link (any λ)" false (Slp.edge_disjoint p1 p3)

let test_slp_allocate_all_or_nothing () =
  let net = fig1_net () in
  Net.allocate net 1 1;
  let p = { Slp.hops = [ { Slp.edge = 0; lambda = 0 }; { Slp.edge = 1; lambda = 1 } ] } in
  (try Slp.allocate net p with Invalid_argument _ -> ());
  (* First hop must not have been leaked. *)
  checkb "no partial allocation" true (Net.is_available net 0 0)

(* ------------------------------------------------------------------ *)
(* Layered                                                              *)

let test_layered_fig1 () =
  let net = fig1_net () in
  match Layered.optimal net ~source:0 ~target:3 with
  | None -> Alcotest.fail "path expected"
  | Some (p, c) ->
    (* Cheapest: 0-e0-1-e1-3 staying on one λ, cost 2. *)
    check Alcotest.(float 1e-9) "optimal cost" 2.0 c;
    check Alcotest.int "2 hops" 2 (Slp.length p);
    checkb "valid" true (Slp.validate net ~source:0 ~target:3 p = Ok ())

let test_layered_conversion_needed () =
  (* Force the 0-2-3 route: λ sets {0} then {1} require one conversion. *)
  let net = fig1_net () in
  let link_enabled e = e = 2 || e = 3 in
  match Layered.optimal net ~link_enabled ~source:0 ~target:3 with
  | None -> Alcotest.fail "path expected"
  | Some (p, c) ->
    check Alcotest.(float 1e-9) "cost incl conversion" 2.5 c;
    check Alcotest.(list (triple int int int)) "converted at 2" [ (2, 0, 1) ]
      (Slp.conversions net p)

let test_layered_no_conversion_blocks () =
  let net = fig1_net ~converter:(fun _ -> Conv.No_conversion) () in
  let link_enabled e = e = 2 || e = 3 in
  check Alcotest.(option (float 0.0)) "wavelength-continuity blocks" None
    (Layered.optimal_cost net ~link_enabled ~source:0 ~target:3)

let test_layered_respects_residual () =
  let net = fig1_net () in
  (* Exhaust e0 and e1 entirely: optimal must reroute via 0-2-3. *)
  Net.allocate net 0 0;
  Net.allocate net 0 1;
  match Layered.optimal net ~source:0 ~target:3 with
  | None -> Alcotest.fail "path expected"
  | Some (p, c) ->
    check Alcotest.(float 1e-9) "rerouted cost" 2.5 c;
    check Alcotest.(list int) "links" [ 2; 3 ] (Slp.links p)

let test_assign_on_path_matches () =
  let net = fig1_net () in
  match Layered.assign_on_path net [ 2; 3 ] with
  | None -> Alcotest.fail "assignment expected"
  | Some (p, c) ->
    check Alcotest.(float 1e-9) "dp cost" 2.5 c;
    checkb "valid" true (Slp.validate net ~source:0 ~target:3 p = Ok ())

let test_assign_on_path_infeasible () =
  let net = fig1_net ~converter:(fun _ -> Conv.No_conversion) () in
  check Alcotest.bool "no consistent chain" true (Layered.assign_on_path net [ 2; 3 ] = None)

(* Random networks for cross-checks. *)
let random_net ?(full = true) seed =
  let rng = Rng.create seed in
  let topo = Rr_topo.Random_topo.degree_bounded ~rng ~n:(5 + Rng.int rng 4) ~degree:3 in
  let converter =
    if full then None
    else
      Some
        (fun v ->
          match v mod 3 with
          | 0 -> Conv.Full 0.3
          | 1 -> Conv.Range (1, 0.3)
          | _ -> Conv.No_conversion)
  in
  Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:(2 + Rng.int rng 3)
    ~lambda_density:0.8 ?converter topo

(* Brute force optimal semilightpath: all node-simple paths + per-path DP. *)
let brute_force_optimal net ~source ~target =
  let paths = Robust_routing.Exact.enumerate_simple_paths net ~source ~target in
  List.fold_left
    (fun best links ->
      match Layered.assign_on_path net links with
      | None -> best
      | Some (_, c) -> (
        match best with Some b when b <= c -> best | _ -> Some c))
    None paths

let prop_layered_matches_brute_force =
  QCheck.Test.make
    ~name:"layered optimum = brute force (metric full conversion)" ~count:60
    QCheck.small_int (fun seed ->
      let net = random_net (seed + 1) in
      let n = Net.n_nodes net in
      let source = 0 and target = n - 1 in
      match (Layered.optimal_cost net ~source ~target, brute_force_optimal net ~source ~target) with
      | None, None -> true
      | Some a, Some b -> Float.abs (a -. b) < 1e-6
      | _ -> false)

let prop_layered_upper_bounds_heterogeneous =
  (* With heterogeneous (possibly non-metric wrt chaining) converters the
     layered search may exploit chained conversions, so it lower-bounds the
     direct-conversion DP optimum; and every returned path must still
     validate structurally. *)
  QCheck.Test.make ~name:"layered <= brute force under mixed converters" ~count:60
    QCheck.small_int (fun seed ->
      let net = random_net ~full:false (seed + 77) in
      let n = Net.n_nodes net in
      let source = 0 and target = n - 1 in
      match (Layered.optimal_cost net ~source ~target, brute_force_optimal net ~source ~target) with
      | None, None -> true
      | Some a, Some b -> a <= b +. 1e-6
      | Some _, None -> true (* chained conversions can unlock paths the DP cannot *)
      | None, Some _ -> false)

(* ------------------------------------------------------------------ *)
(* Auxiliary graphs                                                     *)

let test_aux_gprime_structure () =
  let net = fig1_net () in
  let aux = Aux.gprime net ~source:0 ~target:3 in
  let nodes, traversal, conversion = Aux.stats aux in
  (* 2m + 2 nodes, one traversal arc per live link. *)
  check Alcotest.int "nodes" ((2 * 5) + 2) nodes;
  check Alcotest.int "traversal arcs" 5 traversal;
  (* conversion arcs: node1 in={e0} out={e1,e4} -> 2; node2 in={e2,e4}
     out={e3} -> 2; nodes 0,3 have none on this digraph *)
  check Alcotest.int "conversion arcs" 4 conversion

let test_aux_gprime_weights () =
  let net = fig1_net () in
  let aux = Aux.gprime net ~source:0 ~target:3 in
  (* Traversal weight of e0 = mean over Λ_avail = 1.0; conversion arc
     e2 -> e3 at node 2: avail {0} x {1}, full conversion 0.5 -> mean 0.5;
     conversion arc e0 -> e1 at node 1: {0,1}x{0,1}, identity pairs free:
     mean = 0.5 * (4-2)/4 = 0.25. *)
  let g = aux.Aux.graph in
  let found_conv_e2_e3 = ref None and found_conv_e0_e1 = ref None in
  for a = 0 to Rr_graph.Digraph.n_edges g - 1 do
    match aux.Aux.kind.(a) with
    | Aux.Convert 2 ->
      if
        Rr_graph.Digraph.src g a = aux.Aux.in_node 2
        && Rr_graph.Digraph.dst g a = aux.Aux.out_node 3
      then found_conv_e2_e3 := Some aux.Aux.weight.(a)
    | Aux.Convert 1 ->
      if
        Rr_graph.Digraph.src g a = aux.Aux.in_node 0
        && Rr_graph.Digraph.dst g a = aux.Aux.out_node 1
      then found_conv_e0_e1 := Some aux.Aux.weight.(a)
    | _ -> ()
  done;
  check Alcotest.(option (float 1e-9)) "forced conversion mean" (Some 0.5) !found_conv_e2_e3;
  check Alcotest.(option (float 1e-9)) "half-free conversion mean" (Some 0.25) !found_conv_e0_e1

let test_aux_disjoint_pair_fig1 () =
  let net = fig1_net () in
  let aux = Aux.gprime net ~source:0 ~target:3 in
  match Aux.disjoint_pair aux with
  | None -> Alcotest.fail "pair expected"
  | Some ((p1, p2), _) ->
    let l1 = Aux.links_of_path aux p1 and l2 = Aux.links_of_path aux p2 in
    let all = List.sort compare (l1 @ l2) in
    check Alcotest.(list int) "uses the two disjoint routes" [ 0; 1; 2; 3 ] all

let test_aux_excludes_saturated_links () =
  let net = fig1_net () in
  Net.allocate net 2 0 (* e2 has only λ0: now saturated *);
  let aux = Aux.gprime net ~source:0 ~target:3 in
  let _, traversal, _ = Aux.stats aux in
  check Alcotest.int "saturated link dropped" 4 traversal;
  checkb "no disjoint pair anymore" true (Aux.disjoint_pair aux = None)

let test_aux_gc_threshold_filter () =
  let net = fig1_net () in
  Net.allocate net 0 0 (* e0 at load 1/2 *);
  let aux_low = Aux.gc net ~theta:0.4 ~source:0 ~target:3 () in
  let _, traversal_low, _ = Aux.stats aux_low in
  check Alcotest.int "loaded link filtered" 4 traversal_low;
  let aux_high = Aux.gc net ~theta:0.9 ~source:0 ~target:3 () in
  let _, traversal_high, _ = Aux.stats aux_high in
  check Alcotest.int "kept under lenient threshold" 5 traversal_high

let test_aux_gc_weights_exponential () =
  let net = fig1_net () in
  Net.allocate net 0 0;
  let base = 16.0 in
  let aux = Aux.gc net ~theta:0.9 ~base ~source:0 ~target:3 () in
  let g = aux.Aux.graph in
  let w_e0 = ref None and w_e1 = ref None in
  for a = 0 to Rr_graph.Digraph.n_edges g - 1 do
    match aux.Aux.kind.(a) with
    | Aux.Traverse 0 -> w_e0 := Some aux.Aux.weight.(a)
    | Aux.Traverse 1 -> w_e1 := Some aux.Aux.weight.(a)
    | _ -> ()
  done;
  (* e0: U=1,N=2 -> a^1 - a^0.5 ; e1: U=0,N=2 -> a^0.5 - 1 *)
  check Alcotest.(option (float 1e-6)) "loaded link weight"
    (Some (base -. sqrt base)) !w_e0;
  check Alcotest.(option (float 1e-6)) "idle link weight"
    (Some (sqrt base -. 1.0)) !w_e1;
  (* congestion-heavier link costs more *)
  checkb "monotone in load" true (Option.get !w_e0 > Option.get !w_e1)

let test_aux_grc_weights () =
  let net = fig1_net () in
  Net.allocate net 0 0;
  let aux = Aux.grc net ~theta:0.9 ~source:0 ~target:3 in
  let g = aux.Aux.graph in
  let w_e0 = ref None in
  for a = 0 to Rr_graph.Digraph.n_edges g - 1 do
    match aux.Aux.kind.(a) with
    | Aux.Traverse 0 -> w_e0 := Some aux.Aux.weight.(a)
    | _ -> ()
  done;
  (* G_rc traversal = Σ_avail w / N(e) = 1.0 / 2 *)
  check Alcotest.(option (float 1e-9)) "avg over N" (Some 0.5) !w_e0

let prop_gc_subgraph_of_gprime =
  (* The paper: "Therefore, G_c is a subgraph of G'" — every traversal arc
     of G_c under any threshold corresponds to a traversal arc of G', and
     never the other way round for links at or above the threshold. *)
  QCheck.Test.make ~name:"G_c traversal arcs ⊆ G' traversal arcs" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 23) in
      let net = random_net (seed + 23) in
      (* random usage so thresholds bite *)
      for e = 0 to Net.n_links net - 1 do
        Bitset.iter
          (fun l -> if Rng.uniform rng < 0.3 then Net.allocate net e l)
          (Net.lambdas net e)
      done;
      let n = Net.n_nodes net in
      let theta = 0.1 +. Rng.uniform rng *. 0.9 in
      let gp = Aux.gprime net ~source:0 ~target:(n - 1) in
      let gc = Aux.gc net ~theta ~source:0 ~target:(n - 1) () in
      let traverse_links aux =
        let acc = ref [] in
        Array.iter
          (fun k -> match k with Aux.Traverse e -> acc := e :: !acc | _ -> ())
          aux.Aux.kind;
        List.sort_uniq compare !acc
      in
      let lp = traverse_links gp and lc = traverse_links gc in
      List.for_all (fun e -> List.mem e lp) lc
      && List.for_all (fun e -> Net.link_load net e < theta) lc)

let prop_aux_pair_induces_disjoint_links =
  QCheck.Test.make ~name:"aux disjoint pair -> link-disjoint subgraphs" ~count:80
    QCheck.small_int (fun seed ->
      let net = random_net (seed + 9) in
      let n = Net.n_nodes net in
      let aux = Aux.gprime net ~source:0 ~target:(n - 1) in
      match Aux.disjoint_pair aux with
      | None -> true
      | Some ((p1, p2), _) ->
        let l1 = Aux.links_of_path aux p1 and l2 = Aux.links_of_path aux p2 in
        List.for_all (fun e -> not (List.mem e l2)) l1)

(* ------------------------------------------------------------------ *)
(* Layered.optimal_bounded                                              *)

let test_bounded_zero_forces_continuity () =
  (* The 0-2-3 corridor needs one conversion; budget 0 must refuse it but
     accept the continuous 0-1-3 route. *)
  let net = fig1_net () in
  let corridor e = e = 2 || e = 3 in
  checkb "budget 0 refuses corridor" true
    (Layered.optimal_bounded net ~link_enabled:corridor ~max_conversions:0
       ~source:0 ~target:3
    = None);
  (match Layered.optimal_bounded net ~max_conversions:0 ~source:0 ~target:3 with
   | None -> Alcotest.fail "continuous route exists"
   | Some (p, c) ->
     check Alcotest.(float 1e-9) "continuous cost" 2.0 c;
     check Alcotest.(list (triple int int int)) "no conversions" []
       (Slp.conversions net p));
  match
    Layered.optimal_bounded net ~link_enabled:corridor ~max_conversions:1
      ~source:0 ~target:3
  with
  | None -> Alcotest.fail "budget 1 suffices"
  | Some (_, c) -> check Alcotest.(float 1e-9) "corridor with 1 conversion" 2.5 c

let prop_bounded_monotone_and_converges =
  QCheck.Test.make
    ~name:"bounded optimum is monotone in budget and converges to optimal"
    ~count:50 QCheck.small_int (fun seed ->
      let net = random_net ~full:false (seed + 41) in
      let n = Net.n_nodes net in
      let source = 0 and target = n - 1 in
      let w = Net.n_wavelengths net in
      let cost k =
        Option.map snd
          (Layered.optimal_bounded net ~max_conversions:k ~source ~target)
      in
      let costs = List.map cost [ 0; 1; 2; n * w ] in
      let unbounded = Layered.optimal_cost net ~source ~target in
      (* monotone: fewer options with smaller budget *)
      let rec monotone = function
        | Some a :: (Some b :: _ as rest) -> a +. 1e-9 >= b && monotone rest
        | None :: rest -> monotone rest
        | [ _ ] | [] -> true
        | Some _ :: None :: _ -> false (* feasibility can only improve *)
      in
      monotone costs
      &&
      (* a budget of n·W conversions can never bind *)
      match (List.nth costs 3, unbounded) with
      | Some a, Some b -> Float.abs (a -. b) < 1e-9
      | None, None -> true
      | _ -> false)

let prop_bounded_respects_budget =
  QCheck.Test.make ~name:"bounded solutions convert within budget" ~count:60
    QCheck.small_int (fun seed ->
      let net = random_net ~full:false (seed + 87) in
      let n = Net.n_nodes net in
      let budget = seed mod 3 in
      match
        Layered.optimal_bounded net ~max_conversions:budget ~source:0 ~target:(n - 1)
      with
      | None -> true
      | Some (p, _) ->
        List.length (Slp.conversions net p) <= budget
        && Slp.validate net ~source:0 ~target:(n - 1) p = Ok ())

(* The committed golden (tools/gen_pair_golden) pins every hop, cost bit
   and heap-operation count of the layered searches; both workspace
   disciplines must reproduce it exactly. *)
let test_layered_golden () =
  let golden =
    In_channel.with_open_bin "corpus/layered_paths.golden" In_channel.input_all
  in
  List.iter
    (fun (label, mode) ->
      check Alcotest.string label golden (Rr_check.Layered_golden.render mode))
    [
      ("no workspace", Rr_check.Layered_golden.Fresh_workspaces);
      ("workspace shared with Suurballe", Rr_check.Layered_golden.Shared_with_suurballe);
    ]

(* ------------------------------------------------------------------ *)
(* Usage                                                                *)

module Usage = Rr_wdm.Usage

let test_usage_counts () =
  let net = fig1_net () in
  Net.allocate net 0 0;
  Net.allocate net 1 0;
  Net.allocate net 4 1;
  check Alcotest.(array int) "per-wavelength" [| 2; 1 |] (Usage.per_wavelength_use net);
  check Alcotest.(list int) "most used order" [ 0; 1 ] (Usage.most_used_order net);
  check Alcotest.(list int) "least used order" [ 1; 0 ] (Usage.least_used_order net)

let test_usage_mean_load () =
  let net = fig1_net () in
  check Alcotest.(float 1e-9) "idle" 0.0 (Usage.mean_link_load net);
  Net.allocate net 0 0;
  (* link 0 at 1/2, links 2,3 have 1 λ, rest 2: mean of [0.5;0;0;0;0] *)
  check Alcotest.(float 1e-9) "one allocation" 0.1 (Usage.mean_link_load net);
  checkb "variance positive" true (Usage.load_variance net > 0.0)

let test_usage_continuity () =
  let net = fig1_net () in
  let idle = Usage.continuity_index net in
  Net.allocate net 1 0;
  Net.allocate net 1 1 (* saturate e1 *);
  let loaded = Usage.continuity_index net in
  checkb "continuity decays under load" true (loaded < idle);
  checkb "bounded" true (idle <= 1.0 && loaded >= 0.0)

let suite =
  [
    ( "wdm.conversion",
      [
        Alcotest.test_case "no conversion" `Quick test_conv_no_conversion;
        Alcotest.test_case "full" `Quick test_conv_full;
        Alcotest.test_case "range" `Quick test_conv_range;
        Alcotest.test_case "table" `Quick test_conv_table;
        Alcotest.test_case "table validation" `Quick test_conv_table_validation;
      ] );
    ( "wdm.network",
      [
        Alcotest.test_case "structure" `Quick test_net_structure;
        Alcotest.test_case "create validation" `Quick test_net_create_validation;
        Alcotest.test_case "allocate/release" `Quick test_net_allocate_release;
        Alcotest.test_case "double allocate raises" `Quick test_net_double_allocate_raises;
        Alcotest.test_case "copy isolated" `Quick test_net_copy_isolated;
        Alcotest.test_case "failure" `Quick test_net_failure;
        Alcotest.test_case "load Eq. 2" `Quick test_net_load_eq2;
        qtest prop_net_words_track_mutations;
      ] );
    ( "wdm.semilightpath",
      [
        Alcotest.test_case "cost Eq. 1" `Quick test_slp_cost_eq1;
        Alcotest.test_case "same λ free" `Quick test_slp_no_conversion_same_lambda_free;
        Alcotest.test_case "validate" `Quick test_slp_validate;
        Alcotest.test_case "validate availability" `Quick test_slp_validate_unavailable;
        Alcotest.test_case "validate conversion" `Quick test_slp_validate_conversion_disallowed;
        Alcotest.test_case "edge disjoint" `Quick test_slp_edge_disjoint;
        Alcotest.test_case "allocate all-or-nothing" `Quick test_slp_allocate_all_or_nothing;
      ] );
    ( "wdm.layered",
      [
        Alcotest.test_case "fig1 optimal" `Quick test_layered_fig1;
        Alcotest.test_case "conversion needed" `Quick test_layered_conversion_needed;
        Alcotest.test_case "no-conversion blocks" `Quick test_layered_no_conversion_blocks;
        Alcotest.test_case "respects residual" `Quick test_layered_respects_residual;
        Alcotest.test_case "assign on path" `Quick test_assign_on_path_matches;
        Alcotest.test_case "assign infeasible" `Quick test_assign_on_path_infeasible;
        qtest prop_layered_matches_brute_force;
        qtest prop_layered_upper_bounds_heterogeneous;
        Alcotest.test_case "bounded: zero budget" `Quick test_bounded_zero_forces_continuity;
        qtest prop_bounded_monotone_and_converges;
        qtest prop_bounded_respects_budget;
        Alcotest.test_case "golden paths" `Quick test_layered_golden;
      ] );
    ( "wdm.usage",
      [
        Alcotest.test_case "counts and orders" `Quick test_usage_counts;
        Alcotest.test_case "mean load" `Quick test_usage_mean_load;
        Alcotest.test_case "continuity index" `Quick test_usage_continuity;
      ] );
    ( "wdm.auxiliary",
      [
        Alcotest.test_case "G' structure" `Quick test_aux_gprime_structure;
        Alcotest.test_case "G' weights" `Quick test_aux_gprime_weights;
        Alcotest.test_case "G' disjoint pair (fig1)" `Quick test_aux_disjoint_pair_fig1;
        Alcotest.test_case "saturated links excluded" `Quick test_aux_excludes_saturated_links;
        Alcotest.test_case "G_c threshold filter" `Quick test_aux_gc_threshold_filter;
        Alcotest.test_case "G_c exponential weights" `Quick test_aux_gc_weights_exponential;
        Alcotest.test_case "G_rc weights" `Quick test_aux_grc_weights;
        qtest prop_gc_subgraph_of_gprime;
        qtest prop_aux_pair_induces_disjoint_links;
      ] );
  ]
