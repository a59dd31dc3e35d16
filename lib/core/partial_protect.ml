module Bitset = Rr_util.Bitset
module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath
module Obs = Rr_obs.Obs

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
        let primary_links = Hashtbl.create 8 in
        List.iter
          (fun e -> Hashtbl.replace primary_links e ())
          (Slp.links primary);
        let link_enabled e = not (Hashtbl.mem primary_links e) in
        let arr = Array.of_list primary.Slp.hops in
        (* Detours are reserved one at a time, so a later detour sees the
           earlier ones' wavelengths as residual state and cannot collide
           with them.  [Error acc] carries the detours already allocated
           when a later run fails, so they can be returned. *)
        let rec reserve acc = function
          | [] -> Ok (List.rev acc)
          | (lo, hi) :: rest -> (
            let s = Net.link_src net arr.(lo).Slp.edge in
            let t = Net.link_dst net arr.(hi).Slp.edge in
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
                  reserve (seg :: acc) rest
                | Error _ -> Error acc)
              | Some _ | None -> Error acc)
        in
        (match reserve [] runs with
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
