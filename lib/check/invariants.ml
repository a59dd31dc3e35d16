module Net = Rr_wdm.Network
module Conv = Rr_wdm.Conversion
module Slp = Rr_wdm.Semilightpath
module Bitset = Rr_util.Bitset
module Rng = Rr_util.Rng
module RR = Robust_routing
module Router = RR.Router
module Types = RR.Types
module Batch = RR.Batch

let eps = 1e-6

let close a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs a +. Float.abs b)

let fail fmt = Printf.ksprintf (fun m -> Some m) fmt

let ( let* ) o k = match o with Some _ as s -> s | None -> k ()

(* ------------------------------------------------------------------ *)
(* Building blocks                                                      *)

let min_incident_weight net =
  let n = Net.n_nodes net in
  let best = Array.make n infinity in
  for e = 0 to Net.n_links net - 1 do
    let w =
      Bitset.fold (fun l acc -> Float.min acc (Net.weight net e l)) (Net.lambdas net e)
        infinity
    in
    let touch v = if w < best.(v) then best.(v) <- w in
    touch (Net.link_src net e);
    touch (Net.link_dst net e)
  done;
  best

let premise_theorem2 net =
  let best = min_incident_weight net in
  let ok = ref true in
  let w = Net.n_wavelengths net in
  for v = 0 to Net.n_nodes net - 1 do
    if best.(v) < infinity then
      if Conv.max_cost (Net.converter net v) ~n_wavelengths:w > best.(v) +. 1e-9 then
        ok := false
  done;
  !ok

let node_simple net (p : Slp.t) =
  match p.hops with
  | [] -> true
  | first :: _ ->
    let seen = Hashtbl.create 8 in
    let ok = ref true in
    Hashtbl.replace seen (Net.link_src net first.Slp.edge) ();
    List.iter
      (fun h ->
        let v = Net.link_dst net h.Slp.edge in
        if Hashtbl.mem seen v then ok := false else Hashtbl.replace seen v ())
      p.hops;
    !ok

(* Independent Eq. (1) re-accounting: weights plus conversion costs, summed
   by hand off the raw converter specs. *)
let manual_cost net (p : Slp.t) =
  let rec go = function
    | [] -> Ok 0.0
    | [ h ] -> Ok (Net.weight net h.Slp.edge h.Slp.lambda)
    | h1 :: (h2 :: _ as rest) -> (
      let v = Net.link_dst net h1.Slp.edge in
      match Conv.cost (Net.converter net v) h1.Slp.lambda h2.Slp.lambda with
      | None ->
        Error
          (Printf.sprintf "disallowed conversion %d->%d at node %d" h1.Slp.lambda
             h2.Slp.lambda v)
      | Some c -> (
        match go rest with
        | Ok tail -> Ok (Net.weight net h1.Slp.edge h1.Slp.lambda +. c +. tail)
        | Error _ as e -> e))
  in
  go p.hops

let protected_policy = function Router.Unprotected -> false | _ -> true

let paths_of sol =
  sol.Types.primary :: (match sol.Types.backup with Some b -> [ b ] | None -> [])

(* ------------------------------------------------------------------ *)
(* Routed-pair invariant suite                                          *)

let check_path_invariants net (p : Slp.t) =
  let* () = (if p.hops = [] then fail "empty semilightpath" else None) in
  let* () =
     if not (Slp.link_simple p) then fail "path repeats a physical link" else None
  in
  (* Switch settings: every conversion the path implies must be allowed and
     priced at the node where it happens. *)
  let* () =
     List.fold_left
       (fun acc (v, li, lo) ->
         match acc with
         | Some _ -> acc
         | None ->
           let spec = Net.converter net v in
           if not (Conv.allowed spec li lo) then
             fail "switch setting %d: %d->%d not allowed by converter" v li lo
           else if Conv.cost spec li lo = None then
             fail "switch setting %d: %d->%d has no cost" v li lo
           else None)
       None
       (Slp.conversions net p)
  in
  (* Eq. (1): library accounting vs independent recomputation. *)
  match manual_cost net p with
  | Error m -> Some m
  | Ok expected ->
    let c = try Ok (Slp.cost net p) with Invalid_argument m -> Error m in
    (match c with
     | Error m -> fail "Semilightpath.cost raised: %s" m
     | Ok c ->
       let* () =
          if not (close c expected) then
            fail "Eq.1 mismatch: cost %.9g, recomputed %.9g" c expected
          else None
       in
       let parts = Slp.traversal_cost net p +. Slp.conversion_cost net p in
       if not (close c parts) then
         fail "Eq.1 split mismatch: cost %.9g, traversal+conversion %.9g" c parts
       else None)

let check_load_accounting net sol =
  let net = Net.copy net in
  let m = Net.n_links net in
  let before = Array.init m (fun e -> Bitset.cardinal (Net.used net e)) in
  let before_total = Net.total_in_use net in
  match (try Ok (Types.allocate net sol) with Invalid_argument msg -> Error msg) with
  | Error msg -> fail "allocate rejected routed solution: %s" msg
  | Ok () ->
    let hops = List.concat_map (fun p -> p.Slp.hops) (paths_of sol) in
    let per_link = Array.make m 0 in
    List.iter (fun h -> per_link.(h.Slp.edge) <- per_link.(h.Slp.edge) + 1) hops;
    let err = ref None in
    let expected_rho = ref 0.0 in
    for e = 0 to m - 1 do
      let used = Bitset.cardinal (Net.used net e) in
      if used <> before.(e) + per_link.(e) && !err = None then
        err :=
          fail "Eq.2 usage mismatch on link %d: %d used, expected %d" e used
            (before.(e) + per_link.(e));
      let rho_e =
        float_of_int used /. float_of_int (Bitset.cardinal (Net.lambdas net e))
      in
      expected_rho := Float.max !expected_rho rho_e;
      if (not (close (Net.link_load net e) rho_e)) && !err = None then
        err := fail "Eq.2 link load mismatch on %d: %.9g vs %.9g" e (Net.link_load net e) rho_e
    done;
    let* () = !err in
    let* () =
       if not (close (Net.network_load net) !expected_rho) then
         fail "Eq.2 network load mismatch: %.9g vs recomputed %.9g"
           (Net.network_load net) !expected_rho
       else None
    in
    let* () =
       if Net.total_in_use net <> before_total + List.length hops then
         fail "Eq.2 total_in_use mismatch after allocate"
       else None
    in
    Types.release net sol;
    if Net.total_in_use net <> before_total then
      fail "allocate/release cycle leaks usage (%d vs %d)" (Net.total_in_use net)
        before_total
    else None

let check_solution net ~policy ~source ~target sol =
  let req = { Types.src = source; dst = target } in
  let* () =
     match Types.validate net req sol with
     | Ok () -> None
     | Error m -> fail "validate: %s" m
  in
  let* () =
     if protected_policy policy && sol.Types.backup = None then
       fail "protected policy %s returned no backup" (Router.policy_name policy)
     else None
  in
  let* () =
     match sol.Types.backup with
     | Some b when not (Slp.edge_disjoint sol.Types.primary b) ->
       fail "primary and backup share a physical link"
     | _ -> None
  in
  let* () =
     List.fold_left
       (fun acc p -> match acc with Some _ -> acc | None -> check_path_invariants net p)
       None (paths_of sol)
  in
  check_load_accounting net sol

let check_routed_pair inst =
  let net = Instance.network inst in
  let policy = inst.Instance.policy in
  match
    Router.route (Router.context net) policy ~source:inst.source
      ~target:inst.target
  with
  | Error _ -> None (* feasibility is the oracles' business *)
  | Ok sol -> check_solution net ~policy ~source:inst.source ~target:inst.target sol

(* ------------------------------------------------------------------ *)
(* Oracle cross-checks                                                  *)

let all_full net =
  let ok = ref true in
  for v = 0 to Net.n_nodes net - 1 do
    match Net.converter net v with Conv.Full _ -> () | _ -> ok := false
  done;
  !ok

let check_oracles inst =
  let net = Instance.network inst in
  if Net.n_nodes net > 8 || Net.n_links net > 26 then None
  else begin
    let source = inst.Instance.source and target = inst.Instance.target in
    let approx =
      Result.to_option
        (Router.route (Router.context net) Router.Cost_approx ~source ~target)
    in
    match RR.Exact.route ~max_paths:8_000 net ~source ~target with
    | exception RR.Exact.Budget_exceeded -> None
    | None -> (
      match approx with
      | None -> None
      | Some sol ->
        (* The exact solver enumerates node-simple pairs; the approximation
           may legitimately return a non-node-simple pair that has no
           node-simple counterpart under restricted converters. *)
        if
          node_simple net sol.Types.primary
          && (match sol.Types.backup with Some b -> node_simple net b | None -> false)
        then fail "Exact found no pair but approximation's pair is node-simple"
        else None)
    | Some (exact_sol, opt) -> (
      let* () =
         match Types.validate net { Types.src = source; dst = target } exact_sol with
         | Ok () -> None
         | Error m -> fail "Exact oracle emitted invalid solution: %s" m
      in
      let* () =
         if not (close (Types.total_cost net exact_sol) opt) then
           fail "Exact cost %.9g disagrees with its own solution %.9g" opt
             (Types.total_cost net exact_sol)
         else None
      in
      match approx with
      | None ->
        if all_full net then
          fail "approximation found nothing but Exact found cost %.9g under full conversion" opt
        else None
      | Some sol ->
        let cost = Types.total_cost net sol in
        let* () =
           if premise_theorem2 net && cost > (2.0 *. opt) +. eps *. (1.0 +. opt) then
             fail "Theorem 2 violated: approx %.9g > 2 x optimal %.9g" cost opt
           else None
        in
        if
          node_simple net sol.Types.primary
          && (match sol.Types.backup with Some b -> node_simple net b | None -> true)
          && opt > cost +. (eps *. (1.0 +. cost))
        then fail "Exact %.9g worse than a node-simple approximation %.9g" opt cost
        else None)
  end

let check_ilp inst =
  let net = Instance.network inst in
  if Net.n_nodes net > 5 || Net.n_links net > 12 || Net.n_wavelengths net > 2 then None
  else begin
    let source = inst.Instance.source and target = inst.Instance.target in
    let vars, _ = RR.Ilp_exact.model_size net ~source ~target in
    if vars > 90 then None
    else
      match RR.Exact.route ~max_paths:4_000 net ~source ~target with
      | exception RR.Exact.Budget_exceeded -> None
      | exact -> (
        match RR.Ilp_exact.route ~node_limit:600 net ~source ~target with
        | exception Failure _ -> None (* node budget exhausted *)
        | ilp -> (
          match (exact, ilp) with
          | None, None -> None
          | Some (_, opt), None ->
            fail "ILP infeasible but Exact found cost %.9g" opt
          | None, Some (_, obj) ->
            fail "Exact infeasible but ILP found cost %.9g" obj
          | Some (_, opt), Some (ilp_sol, obj) ->
            let* () =
               match
                 Types.validate net { Types.src = source; dst = target } ilp_sol
               with
               | Ok () -> None
               | Error m -> fail "ILP oracle emitted invalid solution: %s" m
            in
            if not (close opt obj) then
              fail "oracle disagreement: Exact %.9g vs ILP %.9g" opt obj
            else None))
  end

(* ------------------------------------------------------------------ *)
(* Metamorphic properties                                               *)

let scale_spec k = function
  | Conv.No_conversion -> Conv.No_conversion
  | Conv.Full c -> Conv.Full (k *. c)
  | Conv.Range (r, c) -> Conv.Range (r, k *. c)
  | Conv.Table _ -> assert false

let check_weight_scale inst =
  let k = 2.0 in
  let scaled =
    {
      inst with
      Instance.links =
        Array.map
          (fun l -> { l with Instance.l_weight = k *. l.Instance.l_weight })
          inst.Instance.links;
      converters = Array.map (scale_spec k) inst.Instance.converters;
    }
  in
  let net1 = Instance.network inst and net2 = Instance.network scaled in
  let policy = inst.Instance.policy in
  let route net =
    Router.route (Router.context net) policy ~source:inst.source
      ~target:inst.target
  in
  let r1 = route net1 and r2 = route net2 in
  match (r1, r2) with
  | Error _, Error _ -> None
  | Ok _, Error _ -> fail "route vanished after uniform x%g weight scaling" k
  | Error _, Ok _ -> fail "route appeared after uniform x%g weight scaling" k
  | Ok s1, Ok s2 ->
    let hops p = List.map (fun h -> (h.Slp.edge, h.Slp.lambda)) p.Slp.hops in
    let shape s =
      (hops s.Types.primary, Option.map hops s.Types.backup)
    in
    let* () =
       if shape s1 <> shape s2 then
         fail "routed hops changed under uniform x%g weight scaling" k
       else None
    in
    let c1 = Types.total_cost net1 s1 and c2 = Types.total_cost net2 s2 in
    if Float.abs (c2 -. (k *. c1)) > 1e-9 *. (1.0 +. c2) then
      fail "cost does not scale: %.12g vs %g x %.12g" c2 k c1
    else None

(* Deterministic per-instance request list, so batch properties stay pure
   functions of the instance (which the shrinker edits freely). *)
let derived_requests inst k =
  let seed =
    (inst.Instance.n_nodes * 1_000_003)
    + (Array.length inst.Instance.links * 8191)
    + (inst.Instance.n_wavelengths * 131)
    + (inst.Instance.source * 17)
    + inst.Instance.target
  in
  let rng = Rng.create seed in
  let n = inst.Instance.n_nodes in
  if n < 2 then []
  else Gen.requests rng ~n_nodes:n k

let batch_result_equal (a : Batch.result) (b : Batch.result) =
  a.Batch.outcomes = b.Batch.outcomes
  && a.admitted = b.admitted
  && a.dropped = b.dropped
  && a.total_cost = b.total_cost
  && a.final_load = b.final_load

let check_permutation inst =
  let net = Instance.network inst in
  let n = inst.Instance.n_nodes in
  let reqs = derived_requests inst (min 8 (n * (n - 1))) in
  if reqs = [] then None
  else begin
    let policy = inst.Instance.policy in
    let sorted l =
      List.sort compare (List.map (fun r -> (r.Types.src, r.Types.dst)) l)
    in
    let* () =
       if Batch.arrange net Batch.Fifo reqs <> reqs then
         fail "Fifo arrangement reorders the batch"
       else None
    in
    let a1 = Batch.arrange net Batch.Shortest_first reqs in
    let perm = List.rev reqs in
    let a2 = Batch.arrange net Batch.Shortest_first perm in
    let* () =
       if sorted a1 <> sorted reqs then
         fail "Shortest_first arrangement is not a permutation of the batch"
       else None
    in
    if a1 = a2 then begin
      let r1 =
        Batch.route_parallel ~order:Batch.Shortest_first ~jobs:1 (Net.copy net) policy reqs
      in
      let r2 =
        Batch.route_parallel ~order:Batch.Shortest_first ~jobs:1 (Net.copy net) policy perm
      in
      if not (batch_result_equal r1 r2) then
        fail "equal arrangements gave different batch results under permutation"
      else None
    end
    else None
  end

let check_obs_jobs inst =
  let net = Instance.network inst in
  let policy = inst.Instance.policy in
  let plain =
    Router.route (Router.context net) policy ~source:inst.source
      ~target:inst.target
  in
  let with_obs =
    Router.route ~obs:(Rr_obs.Obs.create ()) (Router.context net) policy
      ~source:inst.source ~target:inst.target
  in
  let* () =
     if plain <> with_obs then fail "enabling observability changed the route" else None
  in
  let n = inst.Instance.n_nodes in
  let reqs = derived_requests inst (min 6 (n * (n - 1))) in
  if reqs = [] then None
  else begin
    let reference = Batch.route ~order:Batch.Fifo (Net.copy net) policy reqs in
    let obs_run =
      Batch.route ~order:Batch.Fifo ~obs:(Rr_obs.Obs.create ()) (Net.copy net) policy reqs
    in
    let* () =
       if not (batch_result_equal reference obs_run) then
         fail "enabling observability changed the batch result"
       else None
    in
    List.fold_left
      (fun acc jobs ->
        match acc with
        | Some _ -> acc
        | None ->
          let r =
            Batch.route_parallel ~order:Batch.Fifo ~jobs (Net.copy net) policy reqs
          in
          if not (batch_result_equal reference r) then
            fail "route_parallel with jobs=%d differs from sequential two-phase" jobs
          else None)
      None [ 1; 2; 4 ]
  end

(* ------------------------------------------------------------------ *)
(* Network_io round-trip                                                *)

let check_io_roundtrip inst =
  let text = Rr_wdm.Network_io.print (Instance.network inst) in
  match Rr_wdm.Network_io.parse text with
  | Error m -> fail "printed network does not re-parse: %s" m
  | Ok net2 ->
    let inst2 =
      Instance.of_network net2 ~source:inst.Instance.source
        ~target:inst.Instance.target ~policy:inst.Instance.policy
    in
    if not (Instance.equal inst inst2) then
      fail "print/parse round-trip changed the network"
    else None

(* ------------------------------------------------------------------ *)
(* Incremental auxiliary-graph engine vs fresh construction            *)

let bits = Int64.bits_of_float

(* The arcs an auxiliary graph exposes, in arc-id order, as
   (src, dst, kind, weight-bits).  For a fresh graph every arc counts; for
   a cache view only the enabled subsequence does.  Identical lists mean
   the two graphs present the same search problem bit for bit. *)
let aux_projection (t : Rr_wdm.Auxiliary.t) en =
  let g = t.Rr_wdm.Auxiliary.graph in
  let out = ref [] in
  for a = Rr_graph.Digraph.n_edges g - 1 downto 0 do
    if en a then
      out :=
        ( Rr_graph.Digraph.src g a,
          Rr_graph.Digraph.dst g a,
          t.Rr_wdm.Auxiliary.kind.(a),
          bits t.Rr_wdm.Auxiliary.weight.(a) )
        :: !out
  done;
  !out

(* Suurballe outcomes compared through physical links (arc ids differ
   between the superset graph and a fresh graph by construction). *)
let pair_projection aux = function
  | None -> None
  | Some ((p1, p2), w) ->
    Some
      ( Rr_wdm.Auxiliary.links_of_path aux p1,
        Rr_wdm.Auxiliary.links_of_path aux p2,
        bits w )

let check_aux_cache inst =
  let module Aux = Rr_wdm.Auxiliary in
  let module Cache = Rr_wdm.Aux_cache in
  let net = Instance.network inst in
  let n = Net.n_nodes net in
  let m = Net.n_links net in
  if m = 0 then None
  else begin
    let policy = inst.Instance.policy in
    let ctx = Router.context net in
    let cache = Router.cache ctx in
    let ws = Rr_util.Workspace.create () in
    (* Deterministic function of the instance (the shrinker replays it):
       the op sequence is derived from the instance's own shape. *)
    let rng =
      Rng.create
        (Hashtbl.hash
           ( n,
             inst.Instance.n_wavelengths,
             m,
             inst.Instance.source,
             inst.Instance.target ))
    in
    (* A fresh graph against the cache's view of it: arcs and weights bit
       for bit, then the Suurballe pair, which must also be the full-tree
       reference's on the view (arcs and cost bits). *)
    let compare_graph what s d fresh (view, en) =
      let pair = Aux.disjoint_pair ~enabled:en view in
      if aux_projection fresh (fun _ -> true) <> aux_projection view en then
        fail "cached %s arcs/weights differ from fresh (request %d->%d)" what s d
      else if pair_projection fresh (Aux.disjoint_pair fresh) <> pair_projection view pair
      then fail "cached %s Suurballe result differs from fresh (request %d->%d)" what s d
      else if
        let raw = Option.map (fun (p, w) -> (p, bits w)) in
        raw pair
        <> raw
             (Rr_graph.Suurballe.edge_disjoint_pair_full_tree ~enabled:en view.Aux.graph
                ~weight:view.Aux.weight ~source:view.Aux.source ~target:view.Aux.sink)
      then fail "certified %s Suurballe pair differs from the full tree (request %d->%d)" what s d
      else None
    in
    let compare_once s d =
      ignore (Cache.sync cache : Cache.sync_stats);
      let* () =
        compare_graph "G'" s d
          (Aux.gprime net ~source:s ~target:d)
          (Cache.gprime_view cache ~source:s ~target:d)
      in
      (* The load policies route on G_c (every threshold of the sweep) and
         G_rc (the accepted one): check both views at every threshold. *)
      let* () =
        match policy with
        | Router.Load_aware | Router.Load_cost ->
          List.fold_left
            (fun acc theta ->
              let* () = acc in
              let* () =
                compare_graph "G_c" s d
                  (Aux.gc net ~theta ~source:s ~target:d ())
                  (Cache.gc_view cache ~theta ~source:s ~target:d ())
              in
              compare_graph "G_rc" s d
                (Aux.grc net ~theta ~source:s ~target:d)
                (Cache.grc_view cache ~theta ~source:s ~target:d))
            None (RR.Mincog.thresholds net)
        | _ -> None
      in
      (* End to end: the long-lived context decides as a fresh one does,
         and for Cost_approx as the pipeline on a from-scratch G'. *)
      let cached = Router.route ctx policy ~source:s ~target:d in
      let fresh = Router.route (Router.context net) policy ~source:s ~target:d in
      let* () =
        if cached <> fresh then
          fail "long-lived context decides unlike a fresh one (request %d->%d)" s d
        else None
      in
      match policy with
      | Router.Cost_approx ->
        let oracle =
          RR.Approx_cost.route_on ~workspace:ws net
            (Aux.gprime net ~source:s ~target:d)
            ~source:s ~target:d
        in
        if Result.map (fun r -> r.RR.Approx_cost.solution) oracle <> cached then
          fail "cached routing decision differs from rebuild (request %d->%d)" s d
        else None
      | _ -> None
    in
    let random_pair () =
      let s = Rng.int rng n in
      let d = Rng.int rng (n - 1) in
      (s, if d >= s then d + 1 else d)
    in
    let admitted = ref [] in
    let err = ref None in
    let steps = 14 in
    let i = ref 0 in
    while !err = None && !i < steps do
      incr i;
      let s, d = random_pair () in
      match compare_once s d with
      | Some _ as e -> err := e
      | None ->
        (* Interleave a mutation for the next sync to absorb: admit,
           release, or a failure-state flip. *)
        let r = Rng.uniform rng in
        if r < 0.5 then (
          match Router.admit_result ctx policy ~source:s ~target:d with
          | Ok sol -> admitted := sol :: !admitted
          | Error _ -> ())
        else if r < 0.8 then (
          match !admitted with
          | [] -> ()
          | sols ->
            let j = Rng.int rng (List.length sols) in
            Types.release net (List.nth sols j);
            admitted := List.filteri (fun k _ -> k <> j) sols)
        else begin
          let e = Rng.int rng m in
          if Net.is_failed net e then Net.repair_link net e
          else Net.fail_link net e
        end
    done;
    !err
  end

(* ------------------------------------------------------------------ *)
(* Parallel batch engine vs jobs=1 under interleaved admit batches     *)

(* Counters plus histogram sample counts (durations are wall-clock and
   excluded).  [parallel.*] is dropped: the oversubscription clamp is a
   function of the host's core count, not of the batch. *)
let metric_signature obs =
  List.filter_map
    (fun (name, view) ->
      if String.starts_with ~prefix:"parallel." name then None
      else
        match view with
        | Rr_obs.Metrics.Counter c -> Some (name, c)
        | Rr_obs.Metrics.Histogram h -> Some (name, h.Rr_obs.Metrics.count)
        | Rr_obs.Metrics.Gauge _ -> None)
    (Rr_obs.Metrics.items (Rr_obs.Obs.metrics obs))

let used_state net =
  List.init (Net.n_links net) (fun e ->
      (Bitset.to_list (Net.used net e), Net.is_failed net e))

let check_batch_parallel inst =
  let n = inst.Instance.n_nodes in
  let reqs = derived_requests inst (min 12 (n * (n - 1))) in
  if reqs = [] then None
  else begin
    let policy = inst.Instance.policy in
    (* Up to three interleaved admit batches of similar size. *)
    let rec split k xs =
      if k <= 1 then [ xs ]
      else begin
        let len = (List.length xs + k - 1) / k in
        let rec take i = function
          | x :: rest when i < len ->
            let a, b = take (i + 1) rest in
            (x :: a, b)
          | rest -> ([], rest)
        in
        let a, b = take 0 xs in
        a :: split (k - 1) b
      end
    in
    let batches = split 3 reqs in
    (* One run: a persistent pool across the batches (so jobs > 1
       exercises shard resync), releases and failure flips between
       batches (so the resync has real deltas to replay — all derived
       from the previous results, hence identical across runs whenever
       the engine is deterministic). *)
    let run jobs =
      let net = Instance.network inst in
      let m = Net.n_links net in
      let obs = Rr_obs.Obs.create () in
      RR.Parallel.with_pool ~oversubscribe:true ~jobs (fun pool ->
          let results =
            List.mapi
              (fun b batch ->
                let r = Batch.route_parallel ~pool ~obs net policy batch in
                let k = ref 0 in
                List.iter
                  (fun o ->
                    match o.Batch.solution with
                    | Some sol ->
                      incr k;
                      if !k mod 3 = 0 then Types.release net sol
                    | None -> ())
                  r.Batch.outcomes;
                if m > 0 && b < List.length batches - 1 then begin
                  let e = b * 7 mod m in
                  if Net.is_failed net e then Net.repair_link net e
                  else Net.fail_link net e
                end;
                r)
              batches
          in
          (results, metric_signature obs, used_state net))
    in
    let ref_results, ref_metrics, ref_state = run 1 in
    List.fold_left
      (fun acc jobs ->
        match acc with
        | Some _ -> acc
        | None ->
          let results, metrics, state = run jobs in
          let* () =
            if
              not
                (List.for_all2 batch_result_equal ref_results results)
            then fail "batch outcomes differ between jobs=1 and jobs=%d" jobs
            else None
          in
          let* () =
            if metrics <> ref_metrics then
              fail "merged obs metrics differ between jobs=1 and jobs=%d" jobs
            else None
          in
          if state <> ref_state then
            fail "final network state differs between jobs=1 and jobs=%d" jobs
          else None)
      None [ 2; 4; 8 ]
  end

(* ------------------------------------------------------------------ *)
(* rr_serve pure handler vs direct library calls                       *)

module Sp = Rr_serve.Protocol
module Sc = Rr_serve.Core

(* Error messages are presentation, not semantics: normalise them away
   before byte-comparing encodings. *)
let serve_repr (r : Sp.response) =
  Sp.encode_response
    (match r with Sp.Error { kind; msg = _ } -> Sp.Error { kind; msg = "" } | r -> r)

let check_serve inst =
  let net_ref = Instance.network inst in
  let ref_ctx = Router.context net_ref in
  let n = Net.n_nodes net_ref in
  let m = Net.n_links net_ref in
  if m = 0 then None
  else begin
    let policy = inst.Instance.policy in
    let core = ref (Sc.create ~policy (Instance.network inst)) in
    (* A twin core with observability on: every reply, blocking cause
       included, must be byte-identical to the disabled core's. *)
    let core_live =
      ref (Sc.create ~policy ~obs:(Rr_obs.Obs.create ()) (Instance.network inst))
    in
    (* Deterministic function of the instance (the shrinker replays it). *)
    let rng =
      Rng.create
        (Hashtbl.hash
           ( n,
             inst.Instance.n_wavelengths,
             m,
             inst.Instance.source,
             inst.Instance.target,
             14 ))
    in
    (* Reference service state, maintained with plain library calls — no
       aux cache, no workspace, no obs — on an independent network copy. *)
    let ref_conns : (int, Types.solution) Hashtbl.t = Hashtbl.create 16 in
    let next_id = ref 0 in
    let admitted_total = ref 0 in
    let blocked_total = ref 0 in
    let ref_stats () =
      let failed = ref [] in
      for e = m - 1 downto 0 do
        if Net.is_failed net_ref e then failed := e :: !failed
      done;
      {
        Sp.st_nodes = n;
        st_links = m;
        st_wavelengths = Net.n_wavelengths net_ref;
        st_connections = Hashtbl.length ref_conns;
        st_in_use = Net.total_in_use net_ref;
        st_load = Net.network_load net_ref;
        st_failed_links = !failed;
        st_admitted_total = !admitted_total;
        st_blocked_total = !blocked_total;
      }
    in
    let ref_snapshot () =
      let conns =
        Hashtbl.fold (fun id sol acc -> (id, sol) :: acc) ref_conns []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map (fun (id, sol) -> (id, sol.Types.primary, sol.Types.backup))
      in
      Rr_wdm.Network_io.print_snapshot net_ref ~conns
      ^ Printf.sprintf "# rr-serve meta next_id=%d admitted=%d blocked=%d\n"
          !next_id !admitted_total !blocked_total
    in
    (* Mirror of [Core.handle]'s contract in direct library calls. *)
    let expect (req : Sp.request) : Sp.response =
      match req with
      | Sp.Ping -> Sp.Pong
      | Sp.Query -> Sp.Stats (ref_stats ())
      | Sp.Admit { src; dst; policy = p } ->
        if src < 0 || src >= n || dst < 0 || dst >= n then
          Sp.Error { kind = Sp.Bad_request; msg = "" }
        else if src = dst then Sp.Error { kind = Sp.Bad_request; msg = "" }
        else begin
          let p = Option.value p ~default:policy in
          let rid = !next_id in
          incr next_id;
          match Router.admit_result ref_ctx p ~source:src ~target:dst with
          | Ok sol ->
            Hashtbl.replace ref_conns rid sol;
            incr admitted_total;
            Sp.Admitted { id = rid; cost = Types.total_cost net_ref sol }
          | Error b ->
            incr blocked_total;
            Sp.Blocked { cause = Types.blocked_name b }
        end
      | Sp.Release { id } -> (
        match Hashtbl.find_opt ref_conns id with
        | None -> Sp.Error { kind = Sp.Unknown_id; msg = "" }
        | Some sol ->
          Types.release net_ref sol;
          Hashtbl.remove ref_conns id;
          Sp.Released { id })
      | Sp.Fail_link { link } ->
        if link < 0 || link >= m || Net.is_failed net_ref link then
          Sp.Error { kind = Sp.Bad_state; msg = "" }
        else begin
          Net.fail_link net_ref link;
          Sp.Link_failed { link }
        end
      | Sp.Repair_link { link } ->
        if link < 0 || link >= m || not (Net.is_failed net_ref link) then
          Sp.Error { kind = Sp.Bad_state; msg = "" }
        else begin
          Net.repair_link net_ref link;
          Sp.Link_repaired { link }
        end
      | Sp.Snapshot -> Sp.Snapshot_state { state = ref_snapshot () }
      (* Not generated by this script: bursts are covered differentially
         by the survive case (restoration semantics), restore/shutdown by
         the dedicated snapshot and service tests. *)
      | Sp.Fail_burst _ | Sp.Repair_burst _ | Sp.Restore _ | Sp.Shutdown ->
        Sp.Error { kind = Sp.Bad_request; msg = "" }
    in
    let random_pair () =
      let s = Rng.int rng n in
      let d = Rng.int rng (n - 1) in
      (s, if d >= s then d + 1 else d)
    in
    let gen_request () =
      let r = Rng.uniform rng in
      if r < 0.45 then begin
        let s, d = random_pair () in
        Sp.Admit { src = s; dst = d; policy = None }
      end
      else if r < 0.50 then
        (* Degenerate pair: exercises the validation error path. *)
        Sp.Admit { src = 0; dst = 0; policy = None }
      else if r < 0.65 then Sp.Release { id = Rng.int rng (max 1 !next_id) }
      else if r < 0.80 then begin
        let e = Rng.int rng m in
        if Net.is_failed net_ref e then Sp.Repair_link { link = e }
        else Sp.Fail_link { link = e }
      end
      else if r < 0.90 then Sp.Query
      else Sp.Ping
    in
    let steps = 20 in
    let restart_at = steps / 2 in
    let err = ref None in
    let i = ref 0 in
    while !err = None && !i < steps do
      incr i;
      let req = gen_request () in
      let got = Sc.handle !core req in
      let got_live = Sc.handle !core_live req in
      let want = expect req in
      if serve_repr got <> serve_repr want then
        err :=
          fail "server response differs from library at step %d: %s vs %s" !i
            (serve_repr got) (serve_repr want)
      else if Sp.encode_response got <> Sp.encode_response got_live then
        err :=
          fail "enabling observability changed the reply at step %d: %s vs %s"
            !i (Sp.encode_response got) (Sp.encode_response got_live)
      else begin
        (* Snapshot byte-identity against the independently maintained
           reference state, checked at every step. *)
        let snap = Sc.snapshot !core in
        if snap <> ref_snapshot () then
          err := fail "snapshot text diverges from reference at step %d" !i
        else if !i = restart_at then begin
          (* Mid-script restart: the restored core must continue the run
             byte-identically. *)
          match
            ( Sc.of_snapshot ~policy snap,
              Sc.of_snapshot ~policy ~obs:(Rr_obs.Obs.create ())
                (Sc.snapshot !core_live) )
          with
          | Ok core', Ok live' ->
            core := core';
            core_live := live'
          | Error msg, _ | _, Error msg ->
            err := fail "restore failed at step %d: %s" !i msg
        end
      end
    done;
    let* () = !err in
    let* () =
      if used_state (Sc.network !core) <> used_state net_ref then
        fail "final per-link used/failed state differs from reference"
      else None
    in
    (* Bounded-queue ordering: the first [cap] requests of a round are
       answered in FIFO order, the overflow is Busy, positions align. *)
    let cap = 1 + Rng.int rng 4 in
    let extra = Rng.int rng 4 in
    let round =
      let acc = ref [] in
      for _ = 1 to cap + extra do
        acc := gen_request () :: !acc
      done;
      List.rev !acc
    in
    let expected = List.mapi (fun i req -> (i, req)) round in
    let got = Sc.handle_round !core ~queue_capacity:cap round in
    let got_live = Sc.handle_round !core_live ~queue_capacity:cap round in
    if List.map Sp.encode_response got <> List.map Sp.encode_response got_live
    then fail "enabling observability changed a queued reply"
    else if List.length got <> cap + extra then
      fail "handle_round answered %d of %d requests" (List.length got)
        (cap + extra)
    else
      List.fold_left
        (fun acc ((i, req), resp) ->
          let* () = acc in
          if i < cap then begin
            let want = expect req in
            if serve_repr resp <> serve_repr want then
              fail "queued response %d differs: %s vs %s" i (serve_repr resp)
                (serve_repr want)
            else None
          end
          else begin
            match resp with
            | Sp.Error { kind = Sp.Busy; _ } -> None
            | r -> fail "overflow position %d not Busy: %s" i (serve_repr r)
          end)
        None
        (List.combine expected got)
  end

(* ------------------------------------------------------------------ *)
(* Survivability: restoration under scripted failure bursts            *)

(* Restoration must never corrupt the books.  A scripted sequence of
   failure bursts, node outages, preemptions (evict, then reinstate or
   re-route) and repairs drives {!Robust_routing.Connections} over a
   mixed population of fully-protected, partially-protected and
   effectively-unprotected connections; after every step the surviving
   state is checked against the Eq. 1 / Eq. 2 invariants, and the
   network's whole allocation state must equal a from-scratch
   re-allocation of the surviving working and protection paths onto a
   fresh copy of the instance network (the strongest possible statement
   that releases and splices returned exactly the resources they should
   have).  The re-allocation is the oracle's own code, not the book's. *)
let check_survive inst =
  let module Protect = RR.Partial_protect in
  let module Book = RR.Connections in
  let net = Instance.network inst in
  let n = Net.n_nodes net in
  let m = Net.n_links net in
  if m = 0 || n < 2 then None
  else begin
    (* Deterministic function of the instance, like check_aux_cache; the
       trailing 15 is the case id. *)
    let rng =
      Rng.create
        (Hashtbl.hash
           ( n,
             inst.Instance.n_wavelengths,
             m,
             inst.Instance.source,
             inst.Instance.target,
             15 ))
    in
    let policy = inst.Instance.policy in
    let ctx = Router.context net in
    let exposure =
      if Rng.uniform rng < 0.5 then Protect.All
      else begin
        let s = ref (Bitset.create m) in
        for e = 0 to m - 1 do
          if Rng.uniform rng < 0.6 then s := Bitset.add !s e
        done;
        Protect.Only !s
      end
    in
    let book : unit Book.t = Book.create ctx in
    let next_id = ref 0 in
    let fresh_id () =
      let id = !next_id in
      incr next_id;
      id
    in
    let random_request () =
      let s = Rng.int rng n in
      let d = Rng.int rng (n - 1) in
      { Types.src = s; dst = (if d >= s then d + 1 else d) }
    in
    (* Alternate admission mechanisms so restoration sees every protection
       shape: classic full pairs and partial (segment) protection. *)
    let admit_one () =
      let request = random_request () in
      let { Types.src = source; dst = target } = request in
      let id = fresh_id () in
      let admitted =
        if id land 1 = 0 then
          Router.admit_result ~req:id ctx policy ~source ~target
          |> Result.to_option
          |> Option.map (fun sol -> Book.Admitted sol)
        else
          Protect.admit ~exposure ctx ~source ~target
          |> Option.map (fun (primary, prot) -> Book.Partial (primary, prot))
      in
      Option.iter (fun a -> ignore (Book.add book ~id ~request ~policy () a)) admitted
    in
    (* The oracle's own view of what a connection holds. *)
    let footprint (c : unit Book.conn) =
      c.working
      ::
      (match c.protection with
       | Protect.Unprotected -> []
       | Protect.Full b -> [ b ]
       | Protect.Segments segs -> List.map (fun seg -> seg.Protect.seg_detour) segs)
    in
    (* Fail [links] (and [nodes]) at once, then one restoration pass. *)
    let outage ?nodes links =
      List.iter (Net.fail_link net) links;
      Book.fail ?nodes ~reprovision:(Rng.uniform rng < 0.3) book ~links
        ~req:fresh_id ~on:(fun _ _ -> ())
    in
    (* Preemption as the simulator runs it: evict one or two connections
       whose footprint is all on live links (what [reinstate] needs), try
       a new request on the freed capacity, then either re-route each
       victim unprotected or lose it, or — if the request still blocks —
       put every victim back on its old footprint. *)
    let routed policy (r : Types.request) =
      match Router.route ctx policy ~source:r.src ~target:r.dst with
      | Ok s when Result.is_ok (Types.validate net r s) -> Some s
      | Ok _ | Error _ -> None
    in
    let preempt () =
      let intact c =
        not (List.exists (Net.is_failed net) (List.concat_map Slp.links (footprint c)))
      in
      let victims =
        List.filter (fun c -> intact c && Rng.uniform rng < 0.4) (Book.conns book)
        |> List.filteri (fun i _ -> i < 2)
      in
      List.iter (Book.evict book) victims;
      let request = random_request () in
      match routed policy request with
      | None -> List.iter (Book.reinstate book) victims
      | Some sol ->
        ignore (Book.add book ~id:(fresh_id ()) ~request ~policy () (Book.Routed sol));
        List.iter
          (fun (c : unit Book.conn) ->
            Option.iter
              (fun s ->
                ignore
                  (Book.add book ~id:c.id ~request:c.request ~policy:c.policy ()
                     (Book.Routed s)))
              (routed Router.Unprotected c.request))
          victims
    in
    let scan () =
      List.fold_left
        (fun acc (c : unit Book.conn) ->
          let id = c.id in
          let* () = acc in
          let* () =
            if not (Slp.link_simple c.working) then
              fail "conn %d: working path repeats a physical link" id
            else None
          in
          let* () =
            match List.find_opt (Net.is_failed net) (Slp.links c.working) with
            | Some e -> fail "conn %d: working path crosses failed link %d" id e
            | None -> None
          in
          let* () =
            match manual_cost net c.working with
            | Error msg -> fail "conn %d: %s" id msg
            | Ok expected ->
              let got = Slp.cost net c.working in
              if not (Float.is_finite got) then
                fail "conn %d: non-finite working cost" id
              else if not (close got expected) then
                fail "conn %d: Eq.1 mismatch (%.9g vs manual %.9g)" id got
                  expected
              else None
          in
          match c.protection with
          | Protect.Unprotected -> None
          | Protect.Full b ->
            if not (Slp.link_simple b) then
              fail "conn %d: backup repeats a physical link" id
            else if not (Slp.edge_disjoint c.working b) then
              fail "conn %d: full backup shares a link with the working path"
                id
            else None
          | Protect.Segments segs ->
            List.fold_left
              (fun acc seg ->
                let* () = acc in
                if not (Slp.link_simple seg.Protect.seg_detour) then
                  fail "conn %d: segment detour repeats a physical link" id
                else None)
              None segs)
        None (Book.conns book)
    in
    (* The flat availability words the layered kernels read must be
       Λ(e) \ used(e) on every live link and empty on a failed one. *)
    let words () =
      let nw = Net.words_per_link net and words = Net.avail_words net in
      let expect e =
        if Net.is_failed net e then Bitset.create (Net.n_wavelengths net)
        else Bitset.diff (Net.lambdas net e) (Net.used net e)
      in
      let stale e =
        List.exists
          (fun k -> words.((e * nw) + k) <> Bitset.word (expect e) k)
          (List.init nw Fun.id)
      in
      match List.find_opt stale (List.init m Fun.id) with
      | Some e ->
        fail "link %d: availability words differ from Λ(e) \\ used(e)%s" e
          (if Net.is_failed net e then " (failed: expected empty)" else "")
      | None -> None
    in
    (* Eq. 2 books balance: the live allocation state must be exactly what
       re-allocating every surviving path onto a fresh network produces
       (failure flags applied last, as in snapshot restore). *)
    let replay () =
      let fresh = Instance.network inst in
      match
        List.iter
          (fun c -> List.iter (Slp.allocate fresh) (footprint c))
          (Book.conns book)
      with
      | () ->
        for e = 0 to m - 1 do
          if Net.is_failed net e then Net.fail_link fresh e
        done;
        let live = used_state net and replayed = used_state fresh in
        if live <> replayed then begin
          let diff =
            List.mapi
              (fun e ((lu, lf), (ru, rf)) ->
                if lu <> ru || not (Bool.equal lf rf) then
                  Printf.sprintf "link %d live used=[%s]%s vs replay used=[%s]%s"
                    e
                    (String.concat ";" (List.map string_of_int lu))
                    (if lf then " failed" else "")
                    (String.concat ";" (List.map string_of_int ru))
                    (if rf then " failed" else "")
                else "")
              (List.combine live replayed)
            |> List.filter (fun s -> not (String.equal s ""))
          in
          fail
            "post-restoration allocation state differs from a from-scratch \
             re-allocation of the surviving connections: %s"
            (String.concat "; " diff)
        end
        else None
      | exception Invalid_argument msg ->
        fail "surviving state does not re-allocate on a fresh network: %s" msg
    in
    let books () = match words () with Some _ as err -> err | None -> replay () in
    for _ = 1 to min 10 (2 * n) do
      admit_one ()
    done;
    let err = ref (match scan () with Some _ as s -> s | None -> books ()) in
    let step = ref 0 in
    while !err = None && !step < 8 do
      incr step;
      (* lint: ordered — ascending by construction *)
      let down = List.filter (Net.is_failed net) (List.init m Fun.id) in
      let u = Rng.uniform rng in
      if (not (List.is_empty down)) && u < 0.3 then
        (* repair burst: bring most of the plant back *)
        List.iter
          (fun e -> if Rng.uniform rng < 0.7 then Net.repair_link net e)
          down
      else if u < 0.45 then preempt ()
      else if u < 0.6 then begin
        (* node outage: every live incident fibre fails at once and the
           node's own connections are dropped inside the same pass *)
        let v = Rng.int rng n in
        outage ~nodes:[ v ]
          (List.filter
             (fun e ->
               (not (Net.is_failed net e))
               && (Net.link_src net e = v || Net.link_dst net e = v))
             (List.init m Fun.id))
      end
      else begin
        (* failure burst: one to three correlated cuts, then restoration
           in ascending connection-id order *)
        let burst = 1 + Rng.int rng (min 3 m) in
        outage
          (List.init burst (fun _ -> Rng.int rng m)
          |> List.sort_uniq Int.compare
          |> List.filter (fun e -> not (Net.is_failed net e)))
      end;
      if Rng.uniform rng < 0.5 then admit_one ();
      err := (match scan () with Some _ as s -> s | None -> books ())
    done;
    !err
  end
