module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath

type move = {
  conn : int;
  before : Types.solution;
  after : Types.solution;
}

type outcome = {
  moves : move list;
  initial_load : float;
  final_load : float;
  attempted : int;
}

let solution_links sol =
  Slp.links sol.Types.primary
  @ (match sol.Types.backup with Some b -> Slp.links b | None -> [])

(* Pressure = number of wavelengths the current solutions hold on links at
   the current maximum load; the tie-break objective of the local search. *)
let bottleneck_pressure net conns =
  let rho = Net.network_load net in
  let hot = Hashtbl.create 16 in
  for e = 0 to Net.n_links net - 1 do
    if Net.link_load net e >= rho -. 1e-12 then Hashtbl.replace hot e ()
  done;
  let pressure = ref 0 in
  List.iter
    (fun (_, sol) ->
      List.iter
        (fun e -> if Hashtbl.mem hot e then incr pressure)
        (solution_links sol))
    conns;
  (rho, !pressure)

let reduce_load ?(max_moves = 50) net conns0 =
  let initial_load = Net.network_load net in
  (* One admission context for every re-route of the call. *)
  let ctx = Router.context net in
  let conns = Hashtbl.create 64 in
  List.iter (fun (id, sol) -> Hashtbl.replace conns id sol) conns0;
  let moves = ref [] in
  let attempted = ref 0 in
  let improved = ref true in
  while !improved && List.length !moves < max_moves do
    improved := false;
    let rho = Net.network_load net in
    if rho > 0.0 then begin
      (* connections crossing some maximally loaded link *)
      let hot = Hashtbl.create 16 in
      for e = 0 to Net.n_links net - 1 do
        if Net.link_load net e >= rho -. 1e-12 then Hashtbl.replace hot e ()
      done;
      let candidates =
        (* lint: ordered — sorted by connection id below *)
        Hashtbl.fold
          (fun id sol acc ->
            if List.exists (Hashtbl.mem hot) (solution_links sol) then
              (id, sol) :: acc
            else acc)
          conns []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      let current =
        (* lint: ordered — sorted by connection id below *)
        Hashtbl.fold (fun id sol acc -> (id, sol) :: acc) conns []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      let _, pressure_before = bottleneck_pressure net current in
      (* Re-route preserving the connection's protection shape: protected
         connections go through the Section 4.2 load+cost pipeline;
         unprotected ones get a congestion-avoiding single path (hottest
         links excluded when possible). *)
      let reroute ~protected_ ~source ~target =
        if protected_ then
          Result.to_option (Router.route ctx Router.Load_cost ~source ~target)
        else begin
          let rho' = Net.network_load net in
          let cooler e = Net.link_load net e < rho' -. 1e-12 in
          let single p = { Types.primary = p; backup = None } in
          match Rr_wdm.Layered.optimal net ~link_enabled:cooler ~source ~target with
          | Some (p, _) -> Some (single p)
          | None ->
            Option.map
              (fun (p, _) -> single p)
              (Rr_wdm.Layered.optimal net ~source ~target)
        end
      in
      let try_move (id, sol) =
        if !improved then ()
        else begin
          incr attempted;
          Types.release net sol;
          let src = Slp.source net sol.Types.primary in
          let dst = Slp.target net sol.Types.primary in
          match reroute ~protected_:(Option.is_some sol.Types.backup) ~source:src ~target:dst with
          | Some fresh
            when Result.is_ok (Types.validate net { Types.src = src; dst } fresh) ->
            Types.allocate net fresh;
            Hashtbl.replace conns id fresh;
            let updated =
              (* lint: ordered — sorted by connection id below *)
              Hashtbl.fold (fun i s acc -> (i, s) :: acc) conns []
              |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
            in
            let rho', pressure' = bottleneck_pressure net updated in
            if
              rho' < rho -. 1e-12
              || (rho' <= rho +. 1e-12 && pressure' < pressure_before)
            then begin
              moves := { conn = id; before = sol; after = fresh } :: !moves;
              improved := true
            end
            else begin
              (* not an improvement: roll back *)
              Types.release net fresh;
              Types.allocate net sol;
              Hashtbl.replace conns id sol
            end
          | _ ->
            Types.allocate net sol;
            Hashtbl.replace conns id sol
        end
      in
      List.iter try_move candidates
    end
  done;
  {
    moves = List.rev !moves;
    initial_load;
    final_load = Net.network_load net;
    attempted = !attempted;
  }
