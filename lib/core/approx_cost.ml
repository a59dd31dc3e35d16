module Aux = Rr_wdm.Auxiliary
module Layered = Rr_wdm.Layered
module Slp = Rr_wdm.Semilightpath
module Workspace = Rr_util.Workspace
module Obs = Rr_obs.Obs

type detail = {
  aux : Aux.t;
  aux_weight : float;
  links1 : int list;
  links2 : int list;
  solution : Types.solution;
  refined_cost : float;
}

(* Refine one auxiliary path: optimal semilightpath within the physical
   subgraph its traversal arcs induce.  With a workspace, link-subset
   membership uses its stamped mark set (independent of the distance
   epoch, so the layered search below may reset distances freely).

   The layered optimum is a walk in the wavelength graph; with
   range-limited converters it can revisit a physical link on a second
   wavelength (bouncing between adjacent converter nodes to emulate a
   multi-step conversion).  Such walks are not semilightpaths, so they are
   screened out here — the candidate subgraph then has no refinement. *)
let refine net ?workspace ?(obs = Obs.null) ~source ~target links =
  let result =
    match workspace with
    | Some ws ->
      Workspace.mark_reset ws (Rr_wdm.Network.n_links net);
      List.iter (Workspace.mark ws) links;
      Layered.optimal net ~link_enabled:(Workspace.marked ws) ~obs ~workspace:ws
        ~source ~target
    | None ->
      let set = Hashtbl.create 16 in
      List.iter (fun e -> Hashtbl.replace set e ()) links;
      (* lint: no-thread — ?workspace is statically None in this branch *)
      Layered.optimal net ~link_enabled:(Hashtbl.mem set) ~obs ~source ~target
  in
  match result with
  | Some (p, _) when not (Slp.link_simple p) ->
    Obs.add obs "refine.nonsimple" 1;
    None
  | r -> r

let route_detailed ?aux_cache ?workspace ?(obs = Obs.null) net ~source ~target =
  let aux, enabled =
    match aux_cache with
    | Some cache ->
      if Rr_wdm.Aux_cache.network cache != net then
        invalid_arg "Approx_cost: aux_cache bound to a different network";
      ignore (Rr_wdm.Aux_cache.sync ~obs cache : Rr_wdm.Aux_cache.sync_stats);
      let aux, enabled = Rr_wdm.Aux_cache.gprime_view cache ~source ~target in
      (aux, Some enabled)
    | None ->
      let t0 = Obs.start obs in
      let aux = Aux.gprime net ~source ~target in
      Obs.stop obs "stage.aux_graph" t0;
      (aux, None)
  in
  let t0 = Obs.start obs in
  let pair = Aux.disjoint_pair ~obs ?workspace ?enabled aux in
  Obs.stop obs "stage.disjoint_pair" t0;
  match pair with
  | None -> Error Types.No_disjoint_pair
  | Some ((p1, p2), aux_weight) ->
    let t0 = Obs.start obs in
    let links1 = Aux.links_of_path aux p1 in
    let links2 = Aux.links_of_path aux p2 in
    Obs.stop obs "stage.induce" t0;
    let t0 = Obs.start obs in
    let r1 = refine net ?workspace ~obs ~source ~target links1
    and r2 = refine net ?workspace ~obs ~source ~target links2 in
    Obs.stop obs "stage.refine" t0;
    (match (r1, r2) with
     | Some (sl1, c1), Some (sl2, c2) ->
       (* Serve the cheaper path as primary. *)
       let (primary, _), (backup, _) =
         if c1 <= c2 then ((sl1, c1), (sl2, c2)) else ((sl2, c2), (sl1, c1))
       in
       Ok
         {
           aux;
           aux_weight;
           links1;
           links2;
           solution = { Types.primary; backup = Some backup };
           refined_cost = c1 +. c2;
         }
     | _ -> Error Types.No_wavelength)

let route ?aux_cache ?workspace ?obs net ~source ~target =
  Result.map
    (fun d -> d.solution)
    (route_detailed ?aux_cache ?workspace ?obs net ~source ~target)
