(* Tests for the incremental auxiliary-graph engine: epoch invalidation
   must be exact (a sync recomputes precisely the touched links' arcs),
   release must restore the projection bit-for-bit, a majority-change sync
   must fall back to a full rebuild, and every cached view must stay
   byte-identical to the fresh constructors it replaces. *)

module Net = Rr_wdm.Network
module Aux = Rr_wdm.Auxiliary
module Cache = Rr_wdm.Aux_cache
module RR = Robust_routing
module Types = RR.Types
module Router = RR.Router
module Rng = Rr_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let nsfnet ?(w = 4) seed =
  let rng = Rng.create seed in
  Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:w Rr_topo.Reference.nsfnet

(* Enabled arcs in arc-id order as (src, dst, kind, weight-bits) — equal
   lists mean equal search problems bit for bit. *)
let projection (t : Aux.t) en =
  let g = t.Aux.graph in
  let out = ref [] in
  for a = Rr_graph.Digraph.n_edges g - 1 downto 0 do
    if en a then
      out :=
        ( Rr_graph.Digraph.src g a,
          Rr_graph.Digraph.dst g a,
          t.Aux.kind.(a),
          Int64.bits_of_float t.Aux.weight.(a) )
        :: !out
  done;
  !out

let matches_fresh cache ~source ~target =
  let fresh = Aux.gprime (Cache.network cache) ~source ~target in
  let view, en = Cache.gprime_view cache ~source ~target in
  projection fresh (fun _ -> true) = projection view en

let solution_links sol =
  let module Slp = Rr_wdm.Semilightpath in
  let links =
    Slp.links sol.Types.primary
    @ (match sol.Types.backup with Some b -> Slp.links b | None -> [])
  in
  List.sort_uniq compare links

(* ------------------------------------------------------------------ *)
(* Epoch invalidation exactness                                         *)

let test_delta_exact () =
  let net = nsfnet 11 in
  let cache = Cache.create net in
  let s0 = Cache.sync cache in
  checki "clean sync touches nothing" 0 s0.Cache.touched;
  checkb "clean sync is not a rebuild" false s0.Cache.full_rebuild;
  (* Admit behind the cache's back (through another context); the next
     sync must discover exactly the allocation's links and recompute
     exactly their incident arcs. *)
  let sol =
    match
      Router.admit_result (Router.context net) Router.Cost_approx ~source:0
        ~target:9
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "admission refused on an idle NSFNET"
  in
  let links = solution_links sol in
  let k = List.length links in
  checkb "a protected route uses links" true (k > 0);
  let st = Cache.sync cache in
  checki "touched = links of the allocation" k st.Cache.touched;
  checki "recomputed = traversals + incident conversion arcs"
    (k + Cache.conv_arcs_incident cache links)
    st.Cache.recomputed_arcs;
  checkb "minority change is a delta" false st.Cache.full_rebuild;
  checkb "delta view matches fresh G'" true
    (matches_fresh cache ~source:3 ~target:12);
  (* Stats are sticky until the next sync. *)
  checkb "last_stats returns the sync result" true (Cache.last_stats cache = st)

let test_release_restores () =
  let net = nsfnet 12 in
  let cache = Cache.create net in
  ignore (Cache.sync cache : Cache.sync_stats);
  let view, en = Cache.gprime_view cache ~source:1 ~target:8 in
  let before = projection view en in
  let sol =
    match
      Router.admit_result (Router.context net) Router.Load_cost ~source:2
        ~target:11
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "admission refused on an idle NSFNET"
  in
  ignore (Cache.sync cache : Cache.sync_stats);
  let view, en = Cache.gprime_view cache ~source:1 ~target:8 in
  checkb "admission changes the projection" true (before <> projection view en);
  Types.release net sol;
  let st = Cache.sync cache in
  checki "release touches the same links"
    (List.length (solution_links sol))
    st.Cache.touched;
  let view, en = Cache.gprime_view cache ~source:1 ~target:8 in
  checkb "release restores weights bit-for-bit" true
    (before = projection view en)

let test_full_rebuild_fallback () =
  let net = nsfnet 13 in
  let m = Net.n_links net in
  let cache = Cache.create net in
  ignore (Cache.sync cache : Cache.sync_stats);
  (* Perturb strictly more than half the links. *)
  let changed = (m / 2) + 1 in
  for e = 0 to changed - 1 do
    match Rr_util.Bitset.choose (Net.available net e) with
    | Some l -> Net.allocate net e l
    | None -> Alcotest.fail "idle link with no available wavelength"
  done;
  let st = Cache.sync cache in
  checki "every perturbed link is seen" changed st.Cache.touched;
  checkb "majority change falls back to a rebuild" true st.Cache.full_rebuild;
  checkb "rebuilt view matches fresh G'" true
    (matches_fresh cache ~source:0 ~target:9)

let test_fail_repair () =
  let net = nsfnet 14 in
  let cache = Cache.create net in
  ignore (Cache.sync cache : Cache.sync_stats);
  let view, en = Cache.gprime_view cache ~source:4 ~target:10 in
  let before = projection view en in
  Net.fail_link net 0;
  let st = Cache.sync cache in
  checki "failure touches one link" 1 st.Cache.touched;
  checkb "failed-link view matches fresh G'" true
    (matches_fresh cache ~source:4 ~target:10);
  Net.repair_link net 0;
  ignore (Cache.sync cache : Cache.sync_stats);
  let view, en = Cache.gprime_view cache ~source:4 ~target:10 in
  checkb "repair restores the projection" true (before = projection view en)

(* ------------------------------------------------------------------ *)
(* Load-aware views                                                     *)

let test_gc_grc_views () =
  let net = nsfnet 15 in
  let rng = Rng.create 99 in
  (* A partially loaded network so theta filtering actually excludes
     links. *)
  for e = 0 to Net.n_links net - 1 do
    Rr_util.Bitset.iter
      (fun l -> if Rng.uniform rng < 0.4 then Net.allocate net e l)
      (Net.lambdas net e)
  done;
  let cache = Cache.create net in
  ignore (Cache.sync cache : Cache.sync_stats);
  List.iter
    (fun theta ->
      let fresh = Aux.gc net ~theta ~source:2 ~target:13 () in
      let view, en = Cache.gc_view cache ~theta ~source:2 ~target:13 () in
      checkb
        (Printf.sprintf "G_c view matches fresh at theta=%.2f" theta)
        true
        (projection fresh (fun _ -> true) = projection view en);
      let fresh = Aux.grc net ~theta ~source:2 ~target:13 in
      let view, en = Cache.grc_view cache ~theta ~source:2 ~target:13 in
      checkb
        (Printf.sprintf "G_rc view matches fresh at theta=%.2f" theta)
        true
        (projection fresh (fun _ -> true) = projection view en))
    [ 0.3; 0.6; 1.0 ]

let test_wrong_network_rejected () =
  let net = nsfnet 16 in
  let other = Net.copy net in
  let cache = Cache.create other in
  checkb "the admit shim rejects a cache bound to another network" true
    (try
       ignore
         (Router.admit ~aux_cache:cache ~workspace:(Rr_util.Workspace.create ())
            net Router.Cost_approx ~source:0 ~target:5);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Conversion mean: word-parallel counts vs the dense oracle            *)

(* One node with converter [spec]; only its converter is read. *)
let converter_net w spec =
  Net.create ~n_nodes:2 ~n_wavelengths:w
    ~links:
      [ { Net.ls_src = 0; ls_dst = 1; ls_lambdas = List.init w Fun.id; ls_weight = (fun _ -> 1.0) } ]
    ~converters:(fun _ -> spec)

let random_table rng w =
  Rr_wdm.Conversion.Table
    (Array.init w (fun p ->
         Array.init w (fun q ->
             if p = q then Some 0.0
             else if Rng.int rng 3 = 0 then None
             else Some (Rng.float rng 300.0))))

let random_resid rng w =
  let density = Rng.uniform rng in
  Rr_util.Bitset.of_list w (List.filter (fun _ -> Rng.uniform rng < density) (List.init w Fun.id))

(* Widths above 62 take the multi-word path of the shifted counts. *)
let test_mean_conversion_bits () =
  let rng = Rng.create 4242 in
  let bits = Option.map Int64.bits_of_float in
  List.iter
    (fun w ->
      let c = Rng.float rng 300.0 in
      let specs =
        [
          ("none", Rr_wdm.Conversion.No_conversion);
          ("full", Rr_wdm.Conversion.Full c);
          ("range 0", Rr_wdm.Conversion.Range (0, c));
          ("range 1", Rr_wdm.Conversion.Range (1, c));
          ("range 2", Rr_wdm.Conversion.Range (2, c));
          ("range W", Rr_wdm.Conversion.Range (w, c));
          ("table", random_table rng w);
        ]
      in
      List.iter
        (fun (label, spec) ->
          let net = converter_net w spec in
          for _ = 1 to 60 do
            let a = random_resid rng w and b = random_resid rng w in
            let fresh = Aux.mean_conversion net 0 a b and cached = Cache.mean_conversion net 0 a b in
            if bits fresh <> bits cached then
              Alcotest.failf "W=%d %s: cached mean %s, dense oracle %s" w label
                (Option.fold ~none:"None" ~some:(Printf.sprintf "%h") cached)
                (Option.fold ~none:"None" ~some:(Printf.sprintf "%h") fresh)
          done)
        specs)
    [ 1; 16; 32; 62; 63; 100 ]

let suite =
  [
    ( "wdm.aux_cache",
      [
        Alcotest.test_case "delta invalidation is exact" `Quick test_delta_exact;
        Alcotest.test_case "release restores bit-for-bit" `Quick
          test_release_restores;
        Alcotest.test_case "majority change rebuilds" `Quick
          test_full_rebuild_fallback;
        Alcotest.test_case "fail/repair round-trip" `Quick test_fail_repair;
        Alcotest.test_case "gc/grc views match fresh" `Quick test_gc_grc_views;
        Alcotest.test_case "foreign network rejected" `Quick
          test_wrong_network_rejected;
        Alcotest.test_case "conversion mean = dense oracle bit for bit" `Quick
          test_mean_conversion_bits;
      ] );
  ]
