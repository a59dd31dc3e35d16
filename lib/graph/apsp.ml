let johnson ?enabled g ~weight =
  let n = Digraph.n_nodes g in
  (* Virtual source with zero-weight arcs to every node: equivalent to a
     Bellman-Ford started from all nodes at distance 0. *)
  let m = Digraph.n_edges g in
  let enabled = match enabled with None -> fun _ -> true | Some f -> f in
  let h = Array.make n 0.0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    for e = 0 to m - 1 do
      if enabled e then begin
        let u = Digraph.src g e and v = Digraph.dst g e in
        let cand = h.(u) +. weight e in
        if cand < h.(v) -. 1e-12 then begin
          h.(v) <- cand;
          changed := true
        end
      end
    done
  done;
  if !changed then None (* still relaxing after n rounds: negative cycle *)
  else begin
    let reduced =
      Array.init m (fun e ->
          Float.max 0.0 (weight e +. h.(Digraph.src g e) -. h.(Digraph.dst g e)))
    in
    (* One workspace shared across the n sources: each row is materialised
       before the next search reuses the scratch arrays. *)
    let ws = Rr_util.Workspace.create ~capacity:n () in
    let dist =
      Array.init n (fun s ->
          let t = Dijkstra.tree ~enabled ~workspace:ws g ~weight:reduced ~source:s in
          Array.init n (fun v ->
              let d = Dijkstra.dist t v in
              if Float.equal d infinity then infinity else d -. h.(s) +. h.(v)))
    in
    Some dist
  end

let floyd_warshall ?enabled g ~weight =
  let n = Digraph.n_nodes g in
  let enabled = match enabled with None -> fun _ -> true | Some f -> f in
  let dist = Array.init n (fun _ -> Array.make n infinity) in
  for v = 0 to n - 1 do
    dist.(v).(v) <- 0.0
  done;
  for e = 0 to Digraph.n_edges g - 1 do
    if enabled e then begin
      let u = Digraph.src g e and v = Digraph.dst g e in
      if weight e < dist.(u).(v) then dist.(u).(v) <- weight e
    end
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if dist.(i).(k) < infinity then
        for j = 0 to n - 1 do
          let via = dist.(i).(k) +. dist.(k).(j) in
          if via < dist.(i).(j) then dist.(i).(j) <- via
        done
    done
  done;
  (* negative cycle iff some diagonal went negative *)
  let neg = ref false in
  for v = 0 to n - 1 do
    if dist.(v).(v) < -1e-9 then neg := true
  done;
  if !neg then None else Some dist

let diameter dist =
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc d -> if Float.is_finite d then Float.max acc d else acc)
        acc row)
    0.0 dist

let mean_distance dist =
  let sum = ref 0.0 and count = ref 0 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j d ->
          if i <> j && Float.is_finite d then begin
            sum := !sum +. d;
            incr count
          end)
        row)
    dist;
  if !count = 0 then 0.0 else !sum /. float_of_int !count
