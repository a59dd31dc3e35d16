module Aux = Rr_wdm.Auxiliary
module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath
module Obs = Rr_obs.Obs

let route ~workspace ?(obs = Obs.null) net ~source ~target =
  let t0 = Obs.start obs in
  let aux = Aux.gprime_gated net ~source ~target in
  Obs.stop obs "stage.aux_graph" t0;
  let t0 = Obs.start obs in
  let pair = Aux.disjoint_pair ~obs ~workspace aux in
  Obs.stop obs "stage.disjoint_pair" t0;
  match pair with
  | None -> Error Types.No_disjoint_pair
  | Some ((p1, p2), _) ->
    let links1 = Aux.links_of_path aux p1 in
    let links2 = Aux.links_of_path aux p2 in
    let t0 = Obs.start obs in
    let r1 = Approx_cost.refine ~workspace ~obs net ~source ~target links1
    and r2 = Approx_cost.refine ~workspace ~obs net ~source ~target links2 in
    Obs.stop obs "stage.refine" t0;
    (match (r1, r2) with
     | Some (sl1, c1), Some (sl2, c2) ->
       let primary, backup = if c1 <= c2 then (sl1, sl2) else (sl2, sl1) in
       Ok { Types.primary; backup = Some backup }
     | _ -> Error Types.No_wavelength)

let internal_nodes net p =
  match Slp.links p with
  | [] -> []
  | links ->
    (* every link head except the final one *)
    let rec go = function
      | [ _ ] | [] -> []
      | e :: rest -> Net.link_dst net e :: go rest
    in
    go links

let node_disjoint net sol =
  match sol.Types.backup with
  | None -> true
  | Some b ->
    let i1 = internal_nodes net sol.Types.primary in
    let i2 = internal_nodes net b in
    List.for_all (fun v -> not (List.exists (Int.equal v) i2)) i1
