module Workspace = Rr_util.Workspace
module Obs = Rr_obs.Obs

(* The tree aliases the workspace that ran the search; [gen] detects reuse
   of the workspace by a later search so stale reads raise instead of
   returning garbage.  [early]: the search stopped when its target was
   settled, so only the nodes it popped have final answers. *)
type tree = {
  ws : Workspace.t;
  gen : int;
  n : int;
  source : int;
  early : bool;
}

let check t =
  if Workspace.generation t.ws <> t.gen then
    invalid_arg "Dijkstra: tree is stale (its workspace ran another search)"

let check_node what t v =
  check t;
  if v < 0 || v >= t.n then invalid_arg ("Dijkstra." ^ what ^ ": node out of range");
  if t.early && not (Workspace.settled t.ws v) then
    invalid_arg ("Dijkstra." ^ what ^ ": node not settled (the search stopped at its target)")

let dist t v =
  check_node "dist" t v;
  Workspace.dist t.ws v

let pred_edge t v =
  check_node "pred_edge" t v;
  Workspace.pred t.ws v

let source t = t.source
let workspace t = t.ws

let dists t =
  Array.init t.n (fun v ->
      check_node "dists" t v;
      Workspace.dist t.ws v)

let run ?enabled ?(obs = Obs.null) ?workspace g ~weight ~source ~target =
  let n = Digraph.n_nodes g in
  if source < 0 || source >= n then invalid_arg "Dijkstra: source out of range";
  if Array.length weight < Digraph.n_edges g then
    invalid_arg "Dijkstra: weight array shorter than the edge count";
  let t0 = Obs.start obs in
  let ws =
    match workspace with
    | Some ws ->
      Obs.add obs "workspace.hit" 1;
      ws
    | None ->
      Obs.add obs "workspace.miss" 1;
      Workspace.create ~capacity:n ()
  in
  Workspace.reset ws n;
  let enabled = match enabled with None -> fun _ -> true | Some f -> f in
  let target = match target with Some t -> t | None -> -1 in
  ignore (Workspace.relax ws source 0.0 (-1) : bool);
  let pops = ref 0 and inserts = ref 1 and settled = ref false in
  while (not !settled) && Workspace.heap_size ws > 0 do
    let u = Workspace.pop_min ws in
    incr pops;
    if u = target then settled := true
    else begin
      let edges = Digraph.out_edges g u in
      for i = 0 to Array.length edges - 1 do
        let e = edges.(i) in
        if enabled e then begin
          if weight.(e) < 0.0 then invalid_arg "Dijkstra: negative edge weight";
          if Workspace.relax_add ws (Digraph.dst g e) u weight e e then incr inserts
        end
      done
    end
  done;
  Obs.add obs "heap.pop" !pops;
  Obs.add obs "heap.insert" !inserts;
  Obs.stop obs "kernel.dijkstra" t0;
  { ws; gen = Workspace.generation ws; n; source; early = !settled }

let tree ?enabled ?obs ?workspace g ~weight ~source =
  run ?enabled ?obs ?workspace g ~weight ~source ~target:None

let path_to g t node =
  (* lint: float-eq — infinity is an exact unreached sentinel *)
  if dist t node = infinity then None
  else begin
    let rec collect v acc =
      if v = t.source then acc
      else begin
        let e = pred_edge t v in
        collect (Digraph.src g e) (e :: acc)
      end
    in
    Some (collect node [])
  end

let path_cost ~weight path =
  List.fold_left (fun acc e -> acc +. weight.(e)) 0.0 path

let shortest_path ?enabled ?obs ?workspace g ~weight ~source ~target =
  let t = run ?enabled ?obs ?workspace g ~weight ~source ~target:(Some target) in
  match path_to g t target with
  | None -> None
  | Some p -> Some (p, dist t target)
