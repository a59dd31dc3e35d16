module Bitset = Rr_util.Bitset
module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath
module Obs = Rr_obs.Obs
module Workspace = Rr_util.Workspace

type exposure = All | Only of Bitset.t

type segment = { seg_lo : int; seg_hi : int; seg_detour : Slp.t }

type protection =
  | Unprotected
  | Full of Slp.t
  | Segments of segment list

let paths = function
  | Unprotected -> []
  | Full b -> [ b ]
  | Segments segs -> List.map (fun s -> s.seg_detour) segs

let backup_hops p = List.fold_left (fun acc b -> acc + Slp.length b) 0 (paths p)
let cost net p = List.fold_left (fun acc b -> acc +. Slp.cost net b) 0.0 (paths p)

let exposure_of_rates rates =
  if Array.for_all (fun r -> r > 0.0) rates then All
  else begin
    let s = ref (Bitset.create (Array.length rates)) in
    Array.iteri (fun e r -> if r > 0.0 then s := Bitset.add !s e) rates;
    Only !s
  end

let exposed exposure e =
  match exposure with All -> true | Only s -> Bitset.mem s e

(* Maximal runs of consecutive exposed hops, as inclusive (lo, hi) index
   pairs in primary-hop order. *)
let exposed_runs exposure hops =
  let arr = Array.of_list hops in
  let n = Array.length arr in
  let runs = ref [] in
  let i = ref 0 in
  while !i < n do
    if exposed exposure arr.(!i).Slp.edge then begin
      let lo = !i in
      while !i < n && exposed exposure arr.(!i).Slp.edge do
        incr i
      done;
      runs := (lo, !i - 1) :: !runs
    end
    else incr i
  done;
  List.rev !runs

let splice primary seg =
  let before = List.filteri (fun i _ -> i < seg.seg_lo) primary.Slp.hops in
  let after = List.filteri (fun i _ -> i > seg.seg_hi) primary.Slp.hops in
  { Slp.hops = before @ seg.seg_detour.Slp.hops @ after }

let detour_hop_bound net ~link_enabled ~source ~target =
  if source = target then max_int
  else begin
    let enabled e = link_enabled e && Net.has_available net e in
    let d = Rr_graph.Traversal.bfs_dist ~enabled (Net.graph net) ~source in
    if d.(target) < 0 then max_int else d.(target)
  end

let admit ?(obs = Obs.null) ~exposure ctx ~source ~target =
  let net = Router.network ctx and workspace = Router.workspace ctx in
  let request = { Types.src = source; dst = target } in
  (* The full edge-disjoint candidate is computed up front, on the same
     residual state the fallback path restores to — so falling back never
     needs a second Suurballe pass. *)
  let full =
    Result.to_option (Router.route ~obs ctx Router.Cost_approx ~source ~target)
  in
  let full_backup_hops =
    match full with
    | Some { Types.backup = Some b; _ } -> Some (List.length b.Slp.hops)
    | Some { Types.backup = None; _ } | None -> None
  in
  let fallback () =
    (* [Cost_approx] always routes a pair. *)
    match full with
    | Some ({ Types.primary; backup = Some b } as sol)
      when (match Types.validate net request sol with
            | Ok () -> true
            | Error _ -> false) ->
      Types.allocate net sol;
      Obs.add obs "survive.partial.full_fallback" 1;
      Some (primary, Full b)
    | Some _ | None -> None
  in
  let segmented =
    match Rr_wdm.Layered.optimal ~workspace ~obs net ~source ~target with
    | Some (primary, _) when Slp.link_simple primary -> (
      match exposed_runs exposure primary.Slp.hops with
      | [] ->
        (* No failure-exposed hop: the primary alone already survives
           every admissible failure.  Zero backup beats any pair. *)
        Slp.allocate net primary;
        Some (primary, [])
      | runs ->
        Slp.allocate net primary;
        (* The detour filter: links off the primary, as the workspace's
           mark set (the layered searches reset only its distances). *)
        Workspace.mark_reset workspace (Net.n_links net);
        List.iter (Workspace.mark workspace) (Slp.links primary);
        let link_enabled e = not (Workspace.marked workspace e) in
        let arr = Array.of_list primary.Slp.hops in
        let ends (lo, hi) =
          (Net.link_src net arr.(lo).Slp.edge, Net.link_dst net arr.(hi).Slp.edge)
        in
        (* The hop bound.  Segmentation pays only when the detours total
           fewer hops than the full backup ([seg_hops < fh] below), so
           before each detour search the plan is dropped once the hops
           already reserved plus a lower bound for every remaining run
           reach [fh].  Dropping it changes nothing but the work done:
           - each run's bound is the BFS hop distance under exactly the
             detour search's link filter (off the primary, passing
             [has_available]), and every detour that search returns is a
             walk over such links, so it has at least that many hops;
           - reserving a detour only removes availability, so bounds
             computed before the first reservation still hold after it;
           - a degenerate run (s = t), which fails below anyway, and an
             unreachable one count as unbounded (capped at [fh]);
           - with no full pair ([fh] absent) [pays] holds, so no bound
             applies;
           - a dropped plan leaves like any failed one: it releases what
             it reserved and takes the same [fallback ()], so network
             state, the [survive.partial.segmented] / [full_fallback]
             counters and the outcome are those of running it out. *)
        let fh, bounds =
          match full_backup_hops with
          | None -> (max_int, List.map (fun _ -> 0) runs)
          | Some fh ->
            ( fh,
              List.map
                (fun run ->
                  let s, t = ends run in
                  min fh (detour_hop_bound net ~link_enabled ~source:s ~target:t))
                runs )
        in
        (* Per run, the bound of it and every run after it. *)
        let rests =
          List.fold_right
            (fun b acc -> (b + match acc with [] -> 0 | r :: _ -> r) :: acc)
            bounds []
        in
        (* Detours are reserved one at a time, so a later detour sees the
           earlier ones' wavelengths as residual state and cannot collide
           with them.  [Error acc] carries the detours already allocated
           when a later run fails, so they can be returned. *)
        let rec reserve acc reserved = function
          | [] -> Ok (List.rev acc)
          | (_, rest) :: _ when reserved + rest >= fh ->
            Obs.add obs "survive.partial.hop_bound" 1;
            Error acc
          | (((lo, hi) as run), _) :: more -> (
            let s, t = ends run in
            (* A node-revisiting primary can produce a degenerate run
               whose endpoints coincide; no detour exists for it. *)
            if s = t then Error acc
            else
              match
                Rr_wdm.Layered.optimal ~workspace ~obs ~link_enabled net
                  ~source:s ~target:t
              with
              | Some (d, _) when Slp.link_simple d -> (
                let seg = { seg_lo = lo; seg_hi = hi; seg_detour = d } in
                (* The spliced path is the post-failure working path; its
                   junction conversions must be legal now, not at switch
                   time. *)
                match
                  Slp.validate ~require_available:false net ~source ~target
                    (splice primary seg)
                with
                | Ok () ->
                  Slp.allocate net d;
                  reserve (seg :: acc) (reserved + Slp.length d) more
                | Error _ -> Error acc)
              | Some _ | None -> Error acc)
        in
        (match reserve [] 0 (List.combine runs rests) with
         | Ok segs -> Some (primary, segs)
         | Error acc ->
           List.iter (Slp.release net) (paths (Segments acc) @ [ primary ]);
           None))
    | Some _ | None -> None
  in
  match segmented with
  | None -> fallback ()
  | Some (primary, segs) ->
    let seg_hops =
      List.fold_left
        (fun acc s -> acc + List.length s.seg_detour.Slp.hops)
        0 segs
    in
    let pays =
      match full_backup_hops with None -> true | Some fh -> seg_hops < fh
    in
    if pays then begin
      Obs.add obs "survive.partial.segmented" 1;
      Some (primary, Segments segs)
    end
    else begin
      List.iter (Slp.release net) (primary :: paths (Segments segs));
      fallback ()
    end

let restore_segments ?(obs = Obs.null) net ~primary ~segments =
  let arr = Array.of_list primary.Slp.hops in
  let failed_idx = ref [] in
  Array.iteri
    (fun i h -> if Net.is_failed net h.Slp.edge then failed_idx := i :: !failed_idx)
    arr;
  match !failed_idx with
  | [] -> None
  | idxs -> (
    let covering =
      List.find_opt
        (fun s -> List.for_all (fun i -> i >= s.seg_lo && i <= s.seg_hi) idxs)
        segments
    in
    match covering with
    | None -> None
    | Some seg ->
      let detour_intact =
        List.for_all
          (fun e -> not (Net.is_failed net e))
          (Slp.links seg.seg_detour)
      in
      if not detour_intact then None
      else begin
        let spliced = splice primary seg in
        let source = Slp.source net primary in
        let target = Slp.target net primary in
        match
          Slp.validate ~require_available:false net ~source ~target spliced
        with
        | Error _ -> None
        | Ok () ->
          let replaced =
            List.filteri
              (fun i _ -> i >= seg.seg_lo && i <= seg.seg_hi)
              primary.Slp.hops
          in
          Slp.release net { Slp.hops = replaced };
          List.iter
            (fun s ->
              if not (Int.equal s.seg_lo seg.seg_lo) then
                Slp.release net s.seg_detour)
            segments;
          Obs.add obs "survive.splice" 1;
          Obs.event obs ~a:source ~b:target "journal.survive.splice";
          Some spliced
      end)
