module Aux = Rr_wdm.Auxiliary
module Net = Rr_wdm.Network
module Obs = Rr_obs.Obs
module Cache = Rr_wdm.Aux_cache

type result = {
  theta : float;
  bottleneck : float;
  solution : Types.solution;
}

let theta_bounds net =
  let lo = ref infinity and hi = ref 0.0 in
  for e = 0 to Net.n_links net - 1 do
    if Net.has_available net e then begin
      let n_e = float_of_int (Rr_util.Bitset.cardinal (Net.lambdas net e)) in
      let u_e = float_of_int (Rr_util.Bitset.cardinal (Net.used net e)) in
      let v = (u_e +. 1.0) /. n_e in
      lo := Float.min !lo v;
      hi := Float.max !hi v
    end
  done;
  if Float.equal !lo infinity then (1.0, 1.0) else (!lo, !hi)

(* Thresholds in increasing order: ϑ_min, then geometrically growing
   increments, ϑ_max last.  A threshold of exactly (U+1)/N admits links
   of load U/N since inclusion is strict (U/N < ϑ). *)
let resolution = 10

let thresholds net =
  let theta_min, theta_max = theta_bounds net in
  let delta = theta_max -. theta_min in
  if delta <= 0.0 then [ theta_max ]
  else
    theta_min
    :: List.init resolution (fun i ->
           theta_min +. (delta /. Float.pow 2.0 (float_of_int (resolution - 1 - i))))

(* Try one threshold on the G_c view: Suurballe, refine both paths.  The
   caller has already synced the cache for this request; each threshold
   probe only swaps the filter predicate. *)
let attempt ~workspace ~obs cache ~theta ~base ~source ~target =
  let net = Cache.network cache in
  let aux, enabled = Cache.gc_view cache ~theta ~base ~source ~target () in
  let t0 = Obs.start obs in
  let pair = Aux.disjoint_pair ~obs ~workspace ~enabled aux in
  Obs.stop obs "stage.disjoint_pair" t0;
  match pair with
  | None -> None
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
       Some { theta; bottleneck; solution = { Types.primary; backup = Some backup } }
     | _ -> None)

let route ?(base = 16.0) ~workspace ?(obs = Obs.null) cache ~source ~target =
  ignore (Cache.sync ~obs cache : Cache.sync_stats);
  let rec try_all = function
    | [] -> Error Types.No_disjoint_pair
    | theta :: rest -> (
      match attempt ~workspace ~obs cache ~theta ~base ~source ~target with
      | Some r -> Ok r
      | None -> try_all rest)
  in
  try_all (thresholds (Cache.network cache))

let min_bottleneck ~workspace cache ~source ~target =
  ignore (Cache.sync cache : Cache.sync_stats);
  let net = Cache.network cache in
  (* Distinct realised load levels, ascending; feasibility (existence of an
     edge-disjoint pair among links of load <= level) is monotone, so the
     smallest feasible level is found by linear scan with early exit (the
     level list is tiny: at most W+1 values). *)
  let levels =
    let tbl = Hashtbl.create 16 in
    for e = 0 to Net.n_links net - 1 do
      if Net.has_available net e then Hashtbl.replace tbl (Net.link_load net e) ()
    done;
    (* lint: ordered — the fold result is sorted before use *)
    List.sort Float.compare (Hashtbl.fold (fun l () acc -> l :: acc) tbl [])
  in
  let attempt_level level =
    (* ϑ strictly above [level] but below the next level. *)
    attempt ~workspace ~obs:Obs.null cache ~theta:(level +. 1e-9) ~base:16.0
      ~source ~target
  in
  let rec go = function
    | [] -> None
    | level :: rest -> (
      match attempt_level level with
      | Some r -> Some (r.bottleneck, r.solution)
      | None -> go rest)
  in
  go levels
