type policy =
  | Cost_approx
  | Load_aware
  | Load_cost
  | Two_step
  | First_fit
  | Most_used
  | Least_used
  | Unprotected
  | Node_protect
  | Exact

let all_policies =
  [
    Cost_approx; Load_aware; Load_cost; Two_step; First_fit; Most_used;
    Least_used; Unprotected; Node_protect; Exact;
  ]

let policy_name = function
  | Cost_approx -> "cost-approx"
  | Load_aware -> "load-aware"
  | Load_cost -> "load-cost"
  | Two_step -> "two-step"
  | First_fit -> "first-fit"
  | Most_used -> "most-used"
  | Least_used -> "least-used"
  | Unprotected -> "unprotected"
  | Node_protect -> "node-protect"
  | Exact -> "exact"

let policy_of_string s =
  List.find_opt (fun p -> String.equal (policy_name p) s) all_policies

module Obs = Rr_obs.Obs
module Cache = Rr_wdm.Aux_cache
module Workspace = Rr_util.Workspace

type ctx = { cache : Cache.t; workspace : Workspace.t }

let context net = { cache = Cache.create net; workspace = Workspace.create () }
let network ctx = Cache.network ctx.cache
let cache ctx = ctx.cache
let workspace ctx = ctx.workspace

let route ?(obs = Obs.null) { cache; workspace } policy ~source ~target =
  let net = Cache.network cache in
  (* The baselines and the exact solver block as one opaque step. *)
  let opaque = function Some sol -> Ok sol | None -> Error Types.No_route in
  let result =
    match policy with
    | Cost_approx -> Approx_cost.route ~workspace ~obs cache ~source ~target
    | Load_aware ->
      Result.map
        (fun r -> r.Mincog.solution)
        (Mincog.route ~workspace ~obs cache ~source ~target)
    | Load_cost ->
      Result.map
        (fun r -> r.Approx_load_cost.solution)
        (Approx_load_cost.route ~workspace ~obs cache ~source ~target)
    | Two_step -> opaque (Baselines.two_step ~workspace ~obs net ~source ~target)
    | First_fit -> opaque (Baselines.first_fit ~workspace ~obs net ~source ~target)
    | Most_used -> opaque (Baselines.most_used_fit ~workspace ~obs net ~source ~target)
    | Least_used ->
      opaque (Baselines.least_used_fit ~workspace ~obs net ~source ~target)
    | Unprotected -> opaque (Baselines.unprotected ~workspace ~obs net ~source ~target)
    | Node_protect -> Node_protect.route ~workspace ~obs net ~source ~target
    | Exact ->
      (* The exact enumerative solver has no Dijkstra-shaped scratch state. *)
      opaque (Option.map fst (Exact.route net ~source ~target))
  in
  (match result with
   | Ok _ -> ()
   | Error b ->
     (* The names are {!Types.blocked_counter}'s, spelled out so the probe
        linter sees literals.  No policy validates, so [Validator] cannot
        come back from one. *)
     Obs.add obs
       (match b with
        | Types.No_disjoint_pair -> "route.block.no_disjoint_pair"
        | No_wavelength -> "route.block.no_wavelength"
        | No_route -> "route.block.no_route"
        | Validator _ -> "admit.reject.validator")
       1);
  result

let admit_result ?(obs = Obs.null) ?req ctx policy ~source ~target =
  let net = network ctx in
  (match req with Some id -> Obs.set_request obs id | None -> ());
  let t_admit = Obs.start obs in
  let result =
    match route ~obs ctx policy ~source ~target with
    | Error _ as blocked -> blocked
    | Ok sol -> (
      let t0 = Obs.start obs in
      let verdict = Types.validate net { Types.src = source; dst = target } sol in
      Obs.stop obs "stage.validate" t0;
      match verdict with
      | Error e ->
        (* A policy handed us a path the model rejects: refused, not
           raised, so long simulations survive and the defect shows as a
           non-zero [admit.reject.validator]. *)
        Obs.add obs "admit.reject.validator" 1;
        Error (Types.Validator e)
      | Ok () ->
        let t0 = Obs.start obs in
        Types.allocate net sol;
        Obs.stop obs "stage.allocate" t0;
        Ok sol)
  in
  (match result with
   | Ok _ ->
     Obs.add obs "admit.ok" 1;
     Obs.event obs ~a:source ~b:target "journal.admit.ok"
   | Error b ->
     Obs.add obs "admit.blocked" 1;
     Obs.event obs ~a:(Types.blocked_code b) "journal.admit.blocked";
     (match b with
      | Types.Validator _ -> Obs.anomaly obs "validator-reject"
      | No_disjoint_pair | No_wavelength | No_route -> ()));
  Obs.stop_admit obs t_admit;
  (match req with Some _ -> Obs.clear_request obs | None -> ());
  result

let admit ~aux_cache ~workspace ?obs ?req net policy ~source ~target =
  if Cache.network aux_cache != net then
    invalid_arg "Router.admit: aux_cache bound to a different network";
  Result.to_option
    (admit_result ?obs ?req { cache = aux_cache; workspace } policy ~source
       ~target)

(* The (link, wavelength) hops a solution would allocate, primary first
   then backup, in hop order.  Within one solution every physical link
   appears at most once (link simplicity plus edge-disjointness), so the
   list is duplicate-free in its link component — the batch engine's
   conflict grouping relies on this. *)
let footprint (sol : Types.solution) =
  let module Slp = Rr_wdm.Semilightpath in
  let hops p = List.map (fun h -> (h.Slp.edge, h.Slp.lambda)) p.Slp.hops in
  hops sol.Types.primary
  @ (match sol.Types.backup with None -> [] | Some b -> hops b)
