module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath
module Bitset = Rr_util.Bitset

type objective = Min_total_cost | Min_load_then_cost

type placement = {
  request : Types.request;
  solution : Types.solution option;
}

type plan = {
  placements : placement list;
  served : int;
  total_cost : float;
  network_load : float;
  iterations : int;
}

let plan_of net placements iterations =
  let served = List.length (List.filter (fun p -> Option.is_some p.solution) placements) in
  let total_cost =
    List.fold_left
      (fun acc p ->
        match p.solution with Some s -> acc +. Types.total_cost net s | None -> acc)
      0.0 placements
  in
  { placements; served; total_cost; network_load = Net.network_load net; iterations }

let sequential_on net ?(order = Batch.Fifo) ?(policy = Router.Cost_approx) requests =
  let r = Batch.process ~order net policy requests in
  List.map
    (fun o -> { request = o.Batch.request; solution = o.Batch.solution })
    r.Batch.outcomes

let sequential ?order ?policy net0 requests =
  let net = Net.copy net0 in
  let placements = sequential_on net ?order ?policy requests in
  plan_of net placements 0

(* Objective comparison: more served demands always dominates; then the
   chosen figure of merit, strictly. *)
let better objective (served, load, cost) (served', load', cost') =
  if served' <> served then served' > served
  else
    match objective with
    | Min_total_cost -> cost' < cost -. 1e-9
    | Min_load_then_cost ->
      load' < load -. 1e-9 || (load' <= load +. 1e-9 && cost' < cost -. 1e-9)

let local_search ?order ?(policy = Router.Cost_approx)
    ?(objective = Min_total_cost) ?(max_rounds = 20) net0 requests =
  let net = Net.copy net0 in
  let placements = Array.of_list (sequential_on net ?order ~policy requests) in
  (* One admission context for every re-insertion of the search. *)
  let ctx = Router.context net in
  (* Single-demand re-insertion cannot improve the cost objective (each
     demand already got the cheapest route available at a less loaded
     moment), so the moves are pairwise ruin-and-recreate: tear two
     demands down and re-insert them in both orders.  Re-insertion uses
     the load-aware policy when the objective asks for load. *)
  let reroute_policy =
    match objective with
    | Min_total_cost -> policy
    | Min_load_then_cost -> Router.Load_cost
  in
  let score () =
    let served =
      Array.fold_left (fun a p -> if Option.is_some p.solution then a + 1 else a) 0 placements
    in
    let cost =
      Array.fold_left
        (fun a p ->
          match p.solution with Some s -> a +. Types.total_cost net s | None -> a)
        0.0 placements
    in
    (served, Net.network_load net, cost)
  in
  let apply i sol =
    (match placements.(i).solution with Some s -> Types.release net s | None -> ());
    (match sol with Some s -> Types.allocate net s | None -> ());
    placements.(i) <- { placements.(i) with solution = sol }
  in
  let route_one i =
    let req = placements.(i).request in
    match Router.route ctx reroute_policy ~source:req.Types.src ~target:req.Types.dst with
    | Ok s when Result.is_ok (Types.validate net req s) -> Some s
    | _ -> None
  in
  let n = Array.length placements in
  let iterations = ref 0 in
  let rounds = ref 0 in
  let improved = ref true in
  while !improved && !rounds < max_rounds do
    improved := false;
    incr rounds;
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if not !improved then begin
          let current = score () in
          let saved_i = placements.(i).solution in
          let saved_j = placements.(j).solution in
          (* try both reinsertion orders, keep the better outcome *)
          let attempt first second =
            apply i None;
            apply j None;
            let a, b = if first = i then (i, j) else (j, i) in
            ignore second;
            apply a (route_one a);
            apply b (route_one b);
            score ()
          in
          let restore () =
            apply i None;
            apply j None;
            apply i saved_i;
            apply j saved_j
          in
          let s_ij = attempt i j in
          let keep_ij = better objective current s_ij in
          if keep_ij then begin
            incr iterations;
            improved := true
          end
          else begin
            restore ();
            let s_ji = attempt j i in
            if better objective current s_ji then begin
              incr iterations;
              improved := true
            end
            else restore ()
          end
        end
      done
    done
  done;
  plan_of net (Array.to_list placements) !iterations

(* Joint exact program for two demands: a family per path (x1/y1/x2/y2),
   per-request path + conversion + disjointness constraints, and shared
   per-(link, wavelength) capacity. *)
let ilp_joint ?node_limit net r1 r2 =
  let ilp = Rr_ilp.Ilp.create () in
  let fams =
    List.map
      (fun (prefix, req) ->
        let fam = Ilp_exact.build_family ilp net ~prefix in
        Ilp_exact.add_path_constraints ilp net fam ~source:req.Types.src
          ~target:req.Types.dst;
        Ilp_exact.add_conversion_constraints ilp net fam ~prefix;
        (prefix, req, fam))
      [ ("x1", r1); ("y1", r1); ("x2", r2); ("y2", r2) ]
  in
  let fam_of p = List.find (fun (prefix, _, _) -> String.equal prefix p) fams in
  let _, _, x1 = fam_of "x1" and _, _, y1 = fam_of "y1" in
  let _, _, x2 = fam_of "x2" and _, _, y2 = fam_of "y2" in
  (* per-request edge-disjointness (paper's (16)) *)
  let add_link_exclusion fa fb =
    for e = 0 to Net.n_links net - 1 do
      let terms =
        Bitset.fold
          (fun l acc ->
            let t1 = Option.map (fun v -> (v, 1.0)) (Ilp_exact.var fa e l) in
            let t2 = Option.map (fun v -> (v, 1.0)) (Ilp_exact.var fb e l) in
            List.filter_map Fun.id [ t1; t2 ] @ acc)
          (Net.available net e) []
      in
      if not (List.is_empty terms) then Rr_ilp.Ilp.add_le ilp terms 1.0
    done
  in
  add_link_exclusion x1 y1;
  add_link_exclusion x2 y2;
  (* shared capacity: each (link, λ) carries at most one of the four paths *)
  for e = 0 to Net.n_links net - 1 do
    Bitset.iter
      (fun l ->
        let terms =
          List.filter_map
            (fun (_, _, fam) -> Option.map (fun v -> (v, 1.0)) (Ilp_exact.var fam e l))
            fams
        in
        if List.length terms > 1 then Rr_ilp.Ilp.add_le ilp terms 1.0)
      (Net.available net e)
  done;
  match Rr_ilp.Ilp.solve ?node_limit ilp with
  | None -> None
  | Some { Rr_ilp.Ilp.objective; values; _ } ->
    let decode fam req =
      Ilp_exact.decode net fam values ~source:req.Types.src ~target:req.Types.dst
    in
    (match (decode x1 r1, decode y1 r1, decode x2 r2, decode y2 r2) with
     | Some p1, Some b1, Some p2, Some b2 ->
       let mk p b =
         let cp = Slp.cost net p and cb = Slp.cost net b in
         if cp <= cb then { Types.primary = p; backup = Some b }
         else { Types.primary = b; backup = Some p }
       in
       Some ((mk p1 b1, mk p2 b2), objective)
     | _ -> failwith "Provisioning.ilp_joint: solution decoding failed")
