module Obs = Rr_obs.Obs
module Workspace = Rr_util.Workspace

(* Decompose the cancelled union of two s-t paths (a balanced arc set,
   ascending edge ids) into two simple s-t paths.  A greedy walk from s
   can only get stuck at t (every intermediate node has equal remaining
   in/out degree).  Adjacency lists keep ascending edge-id order: any
   order-preserving re-numbering of the edges then decomposes the same arc
   set into the same two paths — the property the incremental
   auxiliary-graph cache relies on for byte-identical routing decisions. *)
let decompose g ~weight ~source ~target kept =
  let adj = Hashtbl.create 32 in
  let out u = Option.value (Hashtbl.find_opt adj u) ~default:[] in
  let push e = Hashtbl.replace adj (Digraph.src g e) (e :: out (Digraph.src g e)) in
  List.iter push (List.rev kept);
  let extract () =
    let rec walk u acc =
      if u = target then List.rev acc
      else
        match out u with
        | [] -> invalid_arg "Suurballe: internal decomposition stuck"
        | e :: rest ->
          Hashtbl.replace adj u rest;
          walk (Digraph.dst g e) (e :: acc)
    in
    let raw = walk source [] in
    let simple = Path.remove_loops g ~source raw in
    (* Return unused loop arcs to the pool so balance is preserved. *)
    let used = Hashtbl.create 16 in
    List.iter (fun e -> Hashtbl.replace used e ()) simple;
    List.iter (fun e -> if not (Hashtbl.mem used e) then push e) raw;
    simple
  in
  let q1 = extract () in
  let q2 = extract () in
  ((q1, q2), Dijkstra.path_cost ~weight q1 +. Dijkstra.path_cost ~weight q2)

(* Cancel opposite arcs of two paths: the symmetric difference of their
   edge sets, ascending, as {!decompose} takes it. *)
let cancel p1 p2 =
  let only a b = List.filter (fun e -> not (List.exists (Int.equal e) b)) a in
  List.sort Int.compare (only p1 p2 @ only p2 p1)

(* The second pass searches the residual graph of the first path without
   materialising it.  Its arcs are the enabled edges off the first path,
   priced at their reduced cost under the first pass's distances, plus the
   zero-cost reversal of every first-path edge.  Predecessor codes: [2e]
   is edge [e] taken forward, [2e + 1] its reversal. *)

(* Relax [u]'s residual arcs in ascending edge-id order: its out-edges
   [edges.(i ..)], with the reversal of [back] (the first-path edge
   entering [u], or -1) merged in at its own id.  Nodes the first pass
   never reached have no residual arcs.  Returns [inserts] plus the
   number of heap inserts. *)
(* lint: no-alloc *)
let rec scan_residual ws g enabled weight u back edges i inserts =
  if back >= 0 && (i = Array.length edges || back < edges.(i)) then
    let added =
      Workspace.relax ws (Digraph.src g back) (Workspace.dist ws u +. 0.0) ((2 * back) + 1)
    in
    scan_residual ws g enabled weight u (-1) edges i (inserts + Bool.to_int added)
  else if i = Array.length edges then inserts
  else begin
    let e = edges.(i) in
    let v = Digraph.dst g e in
    let added = enabled e && Workspace.relax_reduced ws u v weight e (2 * e) in
    scan_residual ws g enabled weight u back edges (i + 1) (inserts + Bool.to_int added)
  end

(* Shortest source-target path in the residual graph, as the edge ids of
   its arcs.  Reads the potentials and path slots [ws] holds, then runs a
   fresh search on [ws]. *)
let residual_path ~obs ~reused ws g ~enabled ~weight ~source ~target =
  let t0 = Obs.start obs in
  if reused then Obs.add obs "workspace.hit" 1 else Obs.add obs "workspace.miss" 1;
  let n = Digraph.n_nodes g in
  Workspace.reset ws n;
  ignore (Workspace.relax ws source 0.0 (-1) : bool);
  let pops = ref 0 and inserts = ref 1 and settled = ref false in
  while (not !settled) && Workspace.heap_size ws > 0 do
    let u = Workspace.pop_min ws in
    incr pops;
    if u = target then settled := true
    else
      inserts :=
        scan_residual ws g enabled weight u (Workspace.path_in ws u) (Digraph.out_edges g u) 0
          !inserts
  done;
  Obs.add obs "heap.pop" !pops;
  Obs.add obs "heap.insert" !inserts;
  Obs.stop obs "kernel.dijkstra" t0;
  let rec back v acc =
    if v = source then acc
    else
      let a = Workspace.pred ws v in
      let e = a lsr 1 in
      back (if a land 1 = 0 then Digraph.src g e else Digraph.dst g e) (e :: acc)
  in
  if !settled then Some (back target []) else None

let edge_disjoint_pair ?enabled ?(obs = Obs.null) ?workspace g ~weight ~source
    ~target =
  if source = target then invalid_arg "Suurballe: source = target";
  let t0 = Obs.start obs in
  let finish r =
    Obs.stop obs "kernel.suurballe" t0;
    r
  in
  let enabled = match enabled with None -> fun _ -> true | Some f -> f in
  let t1 = Dijkstra.tree ~enabled ~obs ?workspace g ~weight ~source in
  match Dijkstra.path_to g t1 target with
  | None -> finish None
  | Some p1 ->
    (* Potentials and first-path slots outlive the second pass's reset,
       which makes [t1] stale. *)
    let ws = Dijkstra.workspace t1 in
    Workspace.save_potentials ws (Digraph.n_nodes g);
    List.iter (fun e -> Workspace.set_path_in ws (Digraph.dst g e) e) p1;
    match
      residual_path ~obs ~reused:(Option.is_some workspace) ws g ~enabled ~weight
        ~source ~target
    with
    | None -> finish None
    | Some p2 -> finish (Some (decompose g ~weight ~source ~target (cancel p1 p2)))

let edge_disjoint_pair_paper ?enabled ?obs ?workspace g ~weight ~source ~target =
  if source = target then invalid_arg "Suurballe: source = target";
  let n = Digraph.n_nodes g in
  let enabled = match enabled with None -> fun _ -> true | Some f -> f in
  match Dijkstra.shortest_path ~enabled ?obs ?workspace g ~weight ~source ~target with
  | None -> None
  | Some (p1, _) ->
    let on_p1 = Hashtbl.create 16 in
    List.iter (fun e -> Hashtbl.replace on_p1 e ()) p1;
    (* G'² of the pseudo-code: previous path edges reversed, weights
       negated (the residual graph of a one-unit flow). *)
    let b = Digraph.builder n in
    let edges = ref [] in
    let costs = ref [] in
    let add u v e c =
      ignore (Digraph.add_edge b u v);
      edges := e :: !edges;
      costs := c :: !costs
    in
    for e = 0 to Digraph.n_edges g - 1 do
      if enabled e then
        if Hashtbl.mem on_p1 e then
          add (Digraph.dst g e) (Digraph.src g e) e (-.weight.(e))
        else add (Digraph.src g e) (Digraph.dst g e) e weight.(e)
    done;
    let h = Digraph.freeze b in
    let edge_of = Array.of_list (List.rev !edges) in
    let arc_cost = Array.of_list (List.rev !costs) in
    Option.map
      (fun (p2, _) ->
        decompose g ~weight ~source ~target (cancel p1 (List.map (Array.get edge_of) p2)))
      (Bellman_ford.shortest_path h ~weight:(Array.get arc_cost) ~source ~target)

let node_disjoint_pair ?enabled ?obs ?workspace g ~weight ~source ~target =
  if source = target then invalid_arg "Suurballe: source = target";
  let enabled = match enabled with None -> fun _ -> true | Some f -> f in
  let n = Digraph.n_nodes g in
  (* Split each node v into v_in = v and v_out = v + n, with a zero-cost
     internal arc; original edge (u,v) becomes (u_out, v_in). *)
  let b = Digraph.builder (2 * n) in
  (* Internal arcs first: node v's internal arc has id v. *)
  for v = 0 to n - 1 do
    ignore (Digraph.add_edge b v (v + n))
  done;
  let orig_of = Array.make (n + Digraph.n_edges g) (-1) in
  for e = 0 to Digraph.n_edges g - 1 do
    if enabled e then begin
      let u = Digraph.src g e and v = Digraph.dst g e in
      let id = Digraph.add_edge b (u + n) v in
      orig_of.(id) <- e
    end
  done;
  let h = Digraph.freeze b in
  let w = Array.init (Digraph.n_edges h) (fun e -> if e < n then 0.0 else weight.(orig_of.(e))) in
  (* Route from s_out to t_in so the endpoints' internal arcs are not
     (incorrectly) required to be disjoint. *)
  match
    edge_disjoint_pair h ?obs ?workspace ~weight:w ~source:(source + n) ~target
  with
  | None -> None
  | Some ((p1, p2), _) ->
    let strip p = List.filter_map (fun e -> if e < n then None else Some orig_of.(e)) p in
    let q1 = strip p1 and q2 = strip p2 in
    Some ((q1, q2), Dijkstra.path_cost ~weight q1 +. Dijkstra.path_cost ~weight q2)
