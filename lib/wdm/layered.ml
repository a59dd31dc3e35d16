module Bitset = Rr_util.Bitset
module Workspace = Rr_util.Workspace
module Obs = Rr_obs.Obs

(* Each (node, wavelength) layer point is split into an arrival state
   (just landed at v carrying λ, conversion opportunity unspent) and a
   departure state (committed to leave v on λ):

     arr(v,λ) = 2(vW + λ)      dep(v,λ) = 2(vW + λ) + 1

   with super source 2nW and super sink 2nW + 1.  Arrival states connect
   to departure states by a zero-cost identity arc (keep λ) or one
   conversion arc per allowed target wavelength; departure states carry
   the traversal arcs.  The split admits AT MOST ONE conversion per node
   visit — without it, Dijkstra could chain two conversion arcs at one
   node (λ14 → λ13 → λ12 with range-1 converters) and the reconstructed
   hop list would show a direct λ14 → λ12 change that
   {!Semilightpath.validate} correctly rejects.  Rather than
   materialising the layered digraph we run Dijkstra directly over
   implicit adjacency, which saves the O(nW²) construction per request.

   Predecessors are stored as ints so the search can run in a reusable
   {!Workspace} (whose pred array is unboxed):
     -2        seeded from the super source (departure states at [source])
     2e        arrival via link e, same λ
     2x + 1    at a departure state (or the sink): x is the predecessor
               arrival state's λ ([optimal]) or its packed (λ, k)
               ([optimal_bounded]); x = own λ means no conversion
   The workspace's unset value -1 doubles as "no predecessor".

   Every relaxation is a Workspace.relax_copy / relax_add / relax_row
   from the popped state, so no distance is read out or boxed, and the
   loops over links and wavelengths take no closure.  Relax order is the
   order of the sets they walk: out-links as the graph stores them,
   wavelengths ascending, the identity arc before the conversion arcs.

   Both searches address states as [stride * x + off]: a traversal arc
   lands in the arrival block of its head node, a seed or conversion arc
   in the departure row of one node, so one helper serves both state
   packings.  Availability is one load and a mask of the network's flat
   words ({!Network.avail_words}), fetched with the other per-link arrays
   once per search. *)

let p_start = -2
let p_traverse e = 2 * e
let p_convert x = (2 * x) + 1

(* One search's scratch and filter, and the network's flat per-link
   arrays, fetched once per search. *)
type search = {
  ws : Workspace.t;
  enabled : int -> bool;     (* the link filter *)
  out : int array array;     (* per node: out-link ids *)
  dst : int array;           (* per link: head node *)
  rows : float array array;  (* per link: weight per wavelength *)
  words : int array;         (* per link: [nw] availability words *)
  nw : int;
}

let search ws link_enabled net =
  {
    ws;
    enabled = link_enabled;
    out = Network.out_links net;
    dst = Network.link_dsts net;
    rows = Network.weight_rows net;
    words = Network.avail_words net;
    nw = Network.words_per_link net;
  }

(* The traversal arcs out of departure state [state] on wavelength [l],
   whose bit is [lb] in word [lw] of a link's availability: every link of
   [out] that passes the filter and is free on [l], relaxed to arrival
   state [stride * dst + off] in out-link order.  Returns [n] plus the
   successful relaxations. *)
(* lint: no-alloc *)
let rec relax_links sr (out : int array) lw lb l stride off state i n =
  if i = Array.length out then n
  else begin
    let e = out.(i) in
    let n =
      if
        sr.enabled e
        && sr.words.((e * sr.nw) + lw) land lb <> 0
        && Workspace.relax_add sr.ws ((stride * sr.dst.(e)) + off) state sr.rows.(e) l
             (p_traverse e)
      then n + 1
      else n
    in
    relax_links sr out lw lb l stride off state (i + 1) n
  end

(* Seed departure state [stride * λ + off] for every set bit of word [x],
   bit j standing for λ = l0 + j: the set bits in ascending order, as a
   scan over λ visits them. *)
(* lint: no-alloc *)
let rec seed_bits ws x l0 stride off state n =
  if x = 0 then n
  else begin
    let n =
      if x land 1 <> 0 && Workspace.relax_copy ws ((stride * l0) + off) state p_start then n + 1
      else n
    in
    seed_bits ws (x lsr 1) (l0 + 1) stride off state n
  end

(* [seed_bits] over every availability word of link [e], from word [j]. *)
(* lint: no-alloc *)
let rec seed_link sr e j stride off state n =
  if j = sr.nw then n
  else
    seed_link sr e (j + 1) stride off state
      (seed_bits sr.ws sr.words.((e * sr.nw) + j) (j * Bitset.bits_per_word) stride off state n)

let optimal ?(link_enabled = fun _ -> true) ?(obs = Obs.null) ?workspace net
    ~source ~target =
  let t_kernel = Obs.start obs in
  let n = Network.n_nodes net in
  let w = Network.n_wavelengths net in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Layered.optimal: node out of range";
  if source = target then invalid_arg "Layered.optimal: source = target";
  let n_states = (2 * n * w) + 2 in
  let super_source = 2 * n * w in
  let super_sink = super_source + 1 in
  let arr v l = 2 * ((v * w) + l) in
  let dep v l = (2 * ((v * w) + l)) + 1 in
  let ws =
    match workspace with
    | Some ws ->
      Obs.add obs "workspace.hit" 1;
      ws
    | None ->
      Obs.add obs "workspace.miss" 1;
      Workspace.create ~capacity:n_states ()
  in
  Workspace.reset ws n_states;
  let pops = ref 0 and inserts = ref 0 and convs = ref 0 in
  if Workspace.relax ws super_source 0.0 p_start then incr inserts;
  let sr = search ws link_enabled net in
  let settled_sink = ref false in
  while (not !settled_sink) && Workspace.heap_size ws > 0 do
    let state = Workspace.pop_min ws in
    incr pops;
    if state = super_sink then settled_sink := true
    else if state = super_source then begin
      (* Leave the source on any available wavelength of any outgoing
         link; the traversal arc itself is taken below from dep(s, λ). *)
      let out = sr.out.(source) in
      for i = 0 to Array.length out - 1 do
        let e = out.(i) in
        if link_enabled e then inserts := seed_link sr e 0 2 (dep source 0) state !inserts
      done
    end
    else if state land 1 = 1 then begin
      (* Departure state: traversal arcs only. *)
      let s2 = state asr 1 in
      let v = s2 / w and l = s2 mod w in
      inserts :=
        relax_links sr sr.out.(v) (Bitset.word_of l) (Bitset.bit_of l)
          l (2 * w) (arr 0 l) state 0 !inserts
    end
    else begin
      (* Arrival state: finish at the target, or spend / skip the one
         conversion opportunity this visit grants. *)
      let s2 = state asr 1 in
      let v = s2 / w and l = s2 mod w in
      if v = target then begin
        if Workspace.relax_copy ws super_sink state (p_convert l) then incr inserts
      end
      else begin
        if Workspace.relax_copy ws (dep v l) state (p_convert l) then incr inserts;
        (* Conversion arcs at v (not at the source: a fresh transmitter
           can start on any wavelength directly).  Where the first scan
           dominates, only the first arrival popped at v scans. *)
        if
          v <> source
          && ((not (Network.conv_first_dominates net v)) || Workspace.first_visit ws v)
        then begin
          let qs, cs = Network.conv_successors net v l in
          convs := !convs + Array.length qs;
          inserts :=
            !inserts
            + Workspace.relax_row ws state qs cs ~base:(dep v 0) ~stride:2 (p_convert l)
        end
      end
    end
  done;
  let result =
    (* lint: float-eq — infinity is an exact unreached sentinel *)
    if Workspace.dist ws super_sink = infinity then None
    else begin
      (* Reconstruct hops by walking predecessors back from the sink:
         arrival states contribute their incoming hop, departure states
         jump back to the arrival state they converted (or passed) from. *)
      let rec back state acc =
        let p = Workspace.pred ws state in
        if p = -1 then invalid_arg "Layered.optimal: broken predecessor chain"
        else if p = p_start then acc
        else if p land 1 = 0 then begin
          let e = p asr 1 in
          let l = (state asr 1) mod w in
          let u = Network.link_src net e in
          back (dep u l) ({ Semilightpath.edge = e; lambda = l } :: acc)
        end
        else begin
          let l_prev = p asr 1 in
          let v = if state = super_sink then target else (state asr 1) / w in
          back (arr v l_prev) acc
        end
      in
      let p_sink = Workspace.pred ws super_sink in
      let hops =
        if p_sink >= 0 && p_sink land 1 = 1 then
          back (arr target (p_sink asr 1)) []
        else invalid_arg "Layered.optimal: sink without wavelength"
      in
      Some ({ Semilightpath.hops }, Workspace.dist ws super_sink)
    end
  in
  Obs.add obs "heap.pop" !pops;
  Obs.add obs "heap.insert" !inserts;
  Obs.add obs "conv.expansions" !convs;
  Obs.stop obs "kernel.layered" t_kernel;
  result

let optimal_cost ?link_enabled ?obs ?workspace net ~source ~target =
  Option.map snd (optimal ?link_enabled ?obs ?workspace net ~source ~target)

(* Budget-extended layered search: arrival/departure states additionally
   carry the conversions used so far, packed as
   2*(((v*W)+λ)*(K+1) + k) (+1 for departure), with the same super
   source/sink trick as [optimal].  Conversion arcs consume one unit of
   budget; the identity arc is free. *)
let optimal_bounded ?(link_enabled = fun _ -> true) ?(obs = Obs.null) ?workspace
    net ~max_conversions ~source ~target =
  let t_kernel = Obs.start obs in
  if max_conversions < 0 then invalid_arg "Layered.optimal_bounded: negative budget";
  let n = Network.n_nodes net in
  let w = Network.n_wavelengths net in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Layered.optimal_bounded: node out of range";
  if source = target then invalid_arg "Layered.optimal_bounded: source = target";
  let kk = max_conversions + 1 in
  let n_states = (2 * n * w * kk) + 2 in
  let super_source = 2 * n * w * kk in
  let super_sink = super_source + 1 in
  let arr v l k = 2 * ((((v * w) + l) * kk) + k) in
  let dep v l k = (2 * ((((v * w) + l) * kk) + k)) + 1 in
  let ws =
    match workspace with
    | Some ws ->
      Obs.add obs "workspace.hit" 1;
      ws
    | None ->
      Obs.add obs "workspace.miss" 1;
      Workspace.create ~capacity:n_states ()
  in
  Workspace.reset ws n_states;
  let pops = ref 0 and inserts = ref 0 and convs = ref 0 in
  if Workspace.relax ws super_source 0.0 p_start then incr inserts;
  let sr = search ws link_enabled net in
  let settled_sink = ref false in
  while (not !settled_sink) && Workspace.heap_size ws > 0 do
    let state = Workspace.pop_min ws in
    incr pops;
    if state = super_sink then settled_sink := true
    else if state = super_source then begin
      let out = sr.out.(source) in
      for i = 0 to Array.length out - 1 do
        let e = out.(i) in
        if link_enabled e then
          inserts := seed_link sr e 0 (2 * kk) (dep source 0 0) state !inserts
      done
    end
    else if state land 1 = 1 then begin
      let s2 = state asr 1 in
      let vl = s2 / kk and k = s2 mod kk in
      let v = vl / w and l = vl mod w in
      inserts :=
        relax_links sr sr.out.(v) (Bitset.word_of l) (Bitset.bit_of l)
          l (2 * w * kk) (arr 0 l k) state 0 !inserts
    end
    else begin
      let s2 = state asr 1 in
      let vl = s2 / kk and k = s2 mod kk in
      let v = vl / w and l = vl mod w in
      let p = p_convert ((l * kk) + k) in
      if v = target then begin
        if Workspace.relax_copy ws super_sink state p then incr inserts
      end
      else begin
        if Workspace.relax_copy ws (dep v l k) state p then incr inserts;
        (* No first-arrival prune here: a later arrival's conversion back
           to the first arrival's wavelength lands in budget layer k + 1,
           which the first scan's identity arc (layer k) does not bound. *)
        if v <> source && k < max_conversions then begin
          let qs, cs = Network.conv_successors net v l in
          convs := !convs + Array.length qs;
          inserts :=
            !inserts
            + Workspace.relax_row ws state qs cs ~base:(dep v 0 (k + 1)) ~stride:(2 * kk) p
        end
      end
    end
  done;
  let result =
    (* lint: float-eq — infinity is an exact unreached sentinel *)
    if Workspace.dist ws super_sink = infinity then None
    else begin
      (* Converted preds carry the packed (λ, k) of the predecessor
         arrival state. *)
      let rec back state acc =
        let p = Workspace.pred ws state in
        if p = -1 then
          invalid_arg "Layered.optimal_bounded: broken predecessor chain"
        else if p = p_start then acc
        else if p land 1 = 0 then begin
          let e = p asr 1 in
          let s2 = state asr 1 in
          let vl = s2 / kk and k = s2 mod kk in
          let l = vl mod w in
          let u = Network.link_src net e in
          back (dep u l k) ({ Semilightpath.edge = e; lambda = l } :: acc)
        end
        else begin
          let lk = p asr 1 in
          let l_prev = lk / kk and k_prev = lk mod kk in
          let v = if state = super_sink then target else (state asr 1) / kk / w in
          back (arr v l_prev k_prev) acc
        end
      in
      let p_sink = Workspace.pred ws super_sink in
      let hops =
        if p_sink >= 0 && p_sink land 1 = 1 then begin
          let lk = p_sink asr 1 in
          let l_last = lk / kk and k_last = lk mod kk in
          back (arr target l_last k_last) []
        end
        else invalid_arg "Layered.optimal_bounded: sink without wavelength"
      in
      Some ({ Semilightpath.hops }, Workspace.dist ws super_sink)
    end
  in
  Obs.add obs "heap.pop" !pops;
  Obs.add obs "heap.insert" !inserts;
  Obs.add obs "conv.expansions" !convs;
  Obs.stop obs "kernel.layered_bounded" t_kernel;
  result

let assign_on_path net links =
  match links with
  | [] -> invalid_arg "Layered.assign_on_path: empty path"
  | first :: _ ->
    (* Chain check. *)
    ignore
      (List.fold_left
         (fun u e ->
           if Network.link_src net e <> u then
             invalid_arg "Layered.assign_on_path: links do not chain";
           Network.link_dst net e)
         (Network.link_src net first) links);
    let w = Network.n_wavelengths net in
    let links_a = Array.of_list links in
    let k = Array.length links_a in
    (* dp.(i).(λ) = best cost of the prefix ending with link i on λ. *)
    let dp = Array.make_matrix k w infinity in
    let choice = Array.make_matrix k w (-1) in
    Bitset.iter
      (fun l -> dp.(0).(l) <- Network.weight net links_a.(0) l)
      (Network.available net links_a.(0));
    for i = 1 to k - 1 do
      let e = links_a.(i) in
      let v = Network.link_src net e in
      Bitset.iter
        (fun l ->
          let we = Network.weight net e l in
          for lp = 0 to w - 1 do
            if dp.(i - 1).(lp) < infinity then
              match Network.conv_cost net v lp l with
              | Some c ->
                let cand = dp.(i - 1).(lp) +. c +. we in
                if cand < dp.(i).(l) then begin
                  dp.(i).(l) <- cand;
                  choice.(i).(l) <- lp
                end
              | None -> ()
          done)
        (Network.available net e)
    done;
    let best_l = ref (-1) and best = ref infinity in
    for l = 0 to w - 1 do
      if dp.(k - 1).(l) < !best then begin
        best := dp.(k - 1).(l);
        best_l := l
      end
    done;
    if !best_l < 0 then None
    else begin
      let lambdas = Array.make k 0 in
      let rec back i l =
        lambdas.(i) <- l;
        if i > 0 then back (i - 1) choice.(i).(l)
      in
      back (k - 1) !best_l;
      let hops =
        Array.to_list
          (Array.mapi (fun i e -> { Semilightpath.edge = e; lambda = lambdas.(i) }) links_a)
      in
      Some ({ Semilightpath.hops }, !best)
    end
