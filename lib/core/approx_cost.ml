module Aux = Rr_wdm.Auxiliary
module Layered = Rr_wdm.Layered
module Slp = Rr_wdm.Semilightpath
module Workspace = Rr_util.Workspace
module Obs = Rr_obs.Obs
module Cache = Rr_wdm.Aux_cache

type detail = {
  aux : Aux.t;
  aux_weight : float;
  links1 : int list;
  links2 : int list;
  solution : Types.solution;
  refined_cost : float;
}

(* Refine one auxiliary path: optimal semilightpath within the physical
   subgraph its traversal arcs induce.  Link-subset membership uses the
   workspace's stamped mark set (independent of the distance epoch, so
   the layered search below may reset distances freely).

   The layered optimum is a walk in the wavelength graph; with
   range-limited converters it can revisit a physical link on a second
   wavelength (bouncing between adjacent converter nodes to emulate a
   multi-step conversion).  Such walks are not semilightpaths, so they are
   screened out here — the candidate subgraph then has no refinement. *)
let refine ~workspace ?(obs = Obs.null) net ~source ~target links =
  Workspace.mark_reset workspace (Rr_wdm.Network.n_links net);
  List.iter (Workspace.mark workspace) links;
  match
    Layered.optimal net ~link_enabled:(Workspace.marked workspace) ~obs ~workspace
      ~source ~target
  with
  | Some (p, _) when not (Slp.link_simple p) ->
    Obs.add obs "refine.nonsimple" 1;
    None
  | r -> r

let route_on ~workspace ?(obs = Obs.null) ?enabled net aux ~source ~target =
  let t0 = Obs.start obs in
  let pair = Aux.disjoint_pair ~obs ~workspace ?enabled aux in
  Obs.stop obs "stage.disjoint_pair" t0;
  match pair with
  | None -> Error Types.No_disjoint_pair
  | Some ((p1, p2), aux_weight) ->
    let t0 = Obs.start obs in
    let links1 = Aux.links_of_path aux p1 in
    let links2 = Aux.links_of_path aux p2 in
    Obs.stop obs "stage.induce" t0;
    let t0 = Obs.start obs in
    let r1 = refine ~workspace ~obs net ~source ~target links1
    and r2 = refine ~workspace ~obs net ~source ~target links2 in
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

let route_detailed ~workspace ?(obs = Obs.null) cache ~source ~target =
  ignore (Cache.sync ~obs cache : Cache.sync_stats);
  let aux, enabled = Cache.gprime_view cache ~source ~target in
  route_on ~workspace ~obs ~enabled (Cache.network cache) aux ~source ~target

let route ~workspace ?obs cache ~source ~target =
  Result.map
    (fun d -> d.solution)
    (route_detailed ~workspace ?obs cache ~source ~target)
