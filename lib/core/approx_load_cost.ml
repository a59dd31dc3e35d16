module Aux = Rr_wdm.Auxiliary
module Net = Rr_wdm.Network
module Obs = Rr_obs.Obs

type result = {
  theta : float;
  bottleneck : float;
  solution : Types.solution;
}

let route ~workspace ?(obs = Obs.null) cache ~source ~target =
  (* Phase 1 syncs the cache; the network is untouched between phases, so
     the G_rc view below needs no second sync. *)
  match Mincog.route ~workspace ~obs cache ~source ~target with
  | Error b -> Error b
  | Ok phase1 ->
    let net = Rr_wdm.Aux_cache.network cache in
    let theta = phase1.Mincog.theta in
    let aux, enabled = Rr_wdm.Aux_cache.grc_view cache ~theta ~source ~target in
    (match Aux.disjoint_pair ~obs ~workspace ~enabled aux with
     | None ->
       (* ϑ was feasible in phase 1, so G_rc (same topology as G_c) must
          admit a pair; fall back to the phase-1 routes defensively. *)
       Ok
         {
           theta;
           bottleneck = phase1.Mincog.bottleneck;
           solution = phase1.Mincog.solution;
         }
     | Some ((p1, p2), _) ->
       let links1 = Aux.links_of_path aux p1 in
       let links2 = Aux.links_of_path aux p2 in
       (match
          ( Approx_cost.refine ~workspace ~obs net ~source ~target links1,
            Approx_cost.refine ~workspace ~obs net ~source ~target links2 )
        with
        | Some (sl1, c1), Some (sl2, c2) ->
          let primary, backup = if c1 <= c2 then (sl1, sl2) else (sl2, sl1) in
          let bottleneck =
            List.fold_left
              (fun acc e -> Float.max acc (Net.link_load net e))
              0.0 (links1 @ links2)
          in
          Ok
            { theta; bottleneck; solution = { Types.primary; backup = Some backup } }
        | _ ->
          Ok
            {
              theta;
              bottleneck = phase1.Mincog.bottleneck;
              solution = phase1.Mincog.solution;
            }))
