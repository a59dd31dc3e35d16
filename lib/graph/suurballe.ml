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
   is edge [e] taken forward, [2e + 1] its reversal.  Every relaxation is
   tracked in the workspace's tie bank, for {!certified}. *)

(* Relax [u]'s residual arcs in ascending edge-id order: its out-edges
   [edges.(i ..)], with the reversal of [back] (the first-path edge
   entering [u], or -1) merged in at its own id.  Nodes the first pass
   never reached have no residual arcs.  Returns [inserts] plus the
   number of heap inserts. *)
(* lint: no-alloc *)
let rec scan_residual ws g enabled weight u back edges i inserts =
  if back >= 0 && (i = Array.length edges || back < edges.(i)) then
    let added = Workspace.relax_reversal ws (Digraph.src g back) u ((2 * back) + 1) in
    scan_residual ws g enabled weight u (-1) edges i (inserts + Bool.to_int added)
  else if i = Array.length edges then inserts
  else begin
    let e = edges.(i) in
    let v = Digraph.dst g e in
    let added = enabled e && Workspace.relax_reduced ws u v weight e (2 * e) in
    scan_residual ws g enabled weight u back edges (i + 1) (inserts + Bool.to_int added)
  end

(* The residual node a pass-2 predecessor code leaves from. *)
let pred_node g code =
  let e = code lsr 1 in
  if code land 1 = 0 then Digraph.src g e else Digraph.dst g e

(* Shortest source-target path in the residual graph, as the edge ids of
   its arcs.  Reads the potentials and path slots [ws] holds, then runs a
   fresh search on [ws], which it leaves as the search stopped. *)
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
      back (pred_node g a) ((a lsr 1) :: acc)
  in
  if !settled then Some (back target []) else None

(* The certificate of a target-bounded run, read off the workspace as
   the second pass left it ([d1] is the first pass's d(t)).

   The target-bounded run differs from the full-tree one in two places.
   Pass 1 stops when t is settled: its pops are a prefix of the full
   pass's (same heap, same relax order), so the first path and d(v) of
   every settled node are the full pass's.  Pass 2 then prices arcs
   under π'(v) = min(d(v), d(t)) instead of π(v) = d(v).  Both are
   feasible potentials (w(u,v) + π'(u) - π'(v) >= 0 in each case of
   u, v settled or not), and both put π(s) = 0 and π(t) = d(t), so every
   residual s-t path has the same exact reduced length under either.
   The shortest residual paths are therefore the same set; only which
   one the heap's tie-breaking returns may differ.  The certificate
   proves the bounded pass's path P is the only one within [tol] of the
   shortest, so the full pass returns it too.

   Take a simple residual s-t path Q <> P of reduced length
   <= key(t) + tol.  If every node of Q was popped, let y be the last
   node of Q entered by an arc x -> y other than its tree arc; Q runs
   along P from y, so y is on P and y <> s.  x was popped, so x -> y
   was relaxed with a candidate <= d2(y) + tol: a near-tie at y, which
   the tie bank records whether or not it improved y (an improvement
   later undercut by at most [tol] is a near-tie of the later one).
   Otherwise let z be Q's first unpopped node: its popped predecessor
   queued it with a key <= key(t) + tol, and it is still in the heap.
   So when no node of P but s saw a near-tie and the heap holds nothing
   at or below key(t) + tol, P is the unique shortest residual path by a
   margin of more than [tol].

   Floats.  Write u = 2^-53 and M = key(t) + 2 d(t) + tol.  Along a
   residual path of reduced length <= key(t) + tol, every distance and
   reduced cost is <= M, every potential too (it is at most the path's
   prefix length in original weights, <= key(t) + 2 d(t) + tol), and
   w + π u at most 2M.  Each of the path's <= n arcs costs at most four
   roundings of magnitude <= 2M (w + π u, then - π v, the clamp that
   absorbs pass 1's own rounding of π, then the distance sum), so either
   pass computes such a path's length within e = 8 n u M of its exact
   value; a longer path's excess outgrows its own error.  The argument
   above loses 4e in the bounded pass and 2e in the full one: it holds
   when tol > 6e = 48 n u M.  tol = n 2^-40 (key(t) + 2 d(t)), that is
   8192 n u (M - tol), exceeds that by a factor above 80 for every
   n < 2^40; a larger graph is never certified.  Costs closer than tol
   fall back, and with integer weights every near-tie is an exact tie. *)
let certified ws g ~source ~target ~d1 =
  let key = Workspace.dist ws target in
  let n = Digraph.n_nodes g in
  let tol = Float.ldexp (float_of_int n *. (key +. (2.0 *. d1))) (-40) in
  let rec clean v =
    v = source || ((not (Workspace.near_tie ws v tol)) && clean (pred_node g (Workspace.pred ws v)))
  in
  n < 1 lsl 40 && Workspace.heap_clear_above ws (key +. tol) && clean target

type run = Pair of ((int list * int list) * float) | No_pair | Uncertified

(* Both passes.  [bounded]: pass 1 stops at t and the result must carry
   the certificate; otherwise pass 1 is a full tree and its potentials
   uncapped — the textbook run, which certifies nothing. *)
let two_pass ~bounded ~obs ?workspace g ~enabled ~weight ~source ~target =
  let t1 =
    Dijkstra.run ~enabled ~obs ?workspace g ~weight ~source
      ~target:(if bounded then Some target else None)
  in
  match Dijkstra.path_to g t1 target with
  | None -> No_pair
  | Some p1 -> (
    (* Potentials and first-path slots outlive the second pass's reset,
       which makes [t1] stale. *)
    let ws = Dijkstra.workspace t1 in
    let d1 = Dijkstra.dist t1 target in
    Workspace.save_potentials ws (Digraph.n_nodes g) ~cap:(if bounded then d1 else infinity);
    List.iter (fun e -> Workspace.set_path_in ws (Digraph.dst g e) e) p1;
    match
      residual_path ~obs ~reused:(Option.is_some workspace) ws g ~enabled ~weight
        ~source ~target
    with
    | None -> No_pair
    | Some p2 ->
      if bounded && not (certified ws g ~source ~target ~d1) then Uncertified
      else Pair (decompose g ~weight ~source ~target (cancel p1 p2)))

let with_span obs source target f =
  if source = target then invalid_arg "Suurballe: source = target";
  let t0 = Obs.start obs in
  let r = f () in
  Obs.stop obs "kernel.suurballe" t0;
  r

let full_tree ~obs ?workspace g ~enabled ~weight ~source ~target =
  match two_pass ~bounded:false ~obs ?workspace g ~enabled ~weight ~source ~target with
  | Pair p -> Some p
  | No_pair | Uncertified -> None

let edge_disjoint_pair ?(enabled = fun _ -> true) ?(obs = Obs.null) ?workspace g ~weight
    ~source ~target =
  with_span obs source target (fun () ->
      match two_pass ~bounded:true ~obs ?workspace g ~enabled ~weight ~source ~target with
      | Pair p -> Some p
      | No_pair -> None
      | Uncertified ->
        Obs.add obs "suurballe.full_fallback" 1;
        full_tree ~obs ?workspace g ~enabled ~weight ~source ~target)

let edge_disjoint_pair_full_tree ?(enabled = fun _ -> true) ?(obs = Obs.null) ?workspace g
    ~weight ~source ~target =
  with_span obs source target (fun () ->
      full_tree ~obs ?workspace g ~enabled ~weight ~source ~target)

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
