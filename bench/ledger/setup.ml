(* Workload inputs: networks with fixed topology and fit-out seeds, and
   traffic scripts drawn from the run's seed. *)

open Rr_ledger
module Net = Rr_wdm.Network
module Rng = Rr_util.Rng
module L = Rr_serve.Loadgen
module Workload = Rr_sim.Workload

let now_ns = Rr_obs.Obs.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

let fit ~seed ~w ?converter topo =
  Rr_topo.Fitout.fit_out ~rng:(Rng.create seed) ~n_wavelengths:w ?converter topo

let range1 c _ = Rr_wdm.Conversion.Range (1, c)

(* NSFNET link weights are kilometres; a 200 km conversion keeps
   Theorem 2's premise on every node. *)
let nsfnet () = fit ~seed:101 ~w:16 ~converter:(range1 200.0) Rr_topo.Reference.nsfnet

(* Sparse degree-3 WANs: the CLI's waxman:N is dense (2 746 links at
   n=100, 44 004 at n=400), which is not what a wide-area backbone looks
   like.  Link weights are in [1, 2), so a 0.5 conversion keeps
   Theorem 2's premise. *)
let wan ~n ~seed =
  let topo = Rr_topo.Random_topo.degree_bounded ~rng:(Rng.create seed) ~n ~degree:3 in
  fit ~seed:(seed + 1) ~w:32 ~converter:(range1 0.5) topo

(* EON with the default Full converters: assumption (i) of Section 3.3. *)
let eon () = fit ~seed:103 ~w:16 Rr_topo.Reference.eon

let preload net ~seed ~share =
  let rng = Rng.create seed in
  for e = 0 to Net.n_links net - 1 do
    Rr_util.Bitset.iter
      (fun l -> if Rng.uniform rng < share then Net.allocate net e l)
      (Net.lambdas net e)
  done

(* A Poisson admit/release script: {!Rr_serve.Loadgen.script}'s traffic
   model, keeping each operation's time.  With [~drain] the departures
   after the last arrival fall due at it, so the script spans exactly its
   arrivals and ends with every connection released. *)
type script = { at : float array; ops : L.op array }

let script ?(drain = false) ~seed ~n_nodes ~admits model =
  let rng = Rng.create seed in
  let events = ref [] and clock = ref 0.0 in
  for i = 0 to admits - 1 do
    clock := !clock +. Workload.interarrival rng model;
    let src, dst = Workload.random_pair rng ~n_nodes in
    let depart = !clock +. Workload.holding rng model in
    events :=
      (depart, (2 * i) + 1, L.Op_release { admit = i })
      :: (!clock, 2 * i, L.Op_admit { src; dst })
      :: !events
  done;
  let last = !clock in
  let events =
    List.map (fun (t, k, op) -> ((if drain then Float.min t last else t), k, op)) !events
    |> List.sort (fun (t1, s1, _) (t2, s2, _) ->
           match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c)
  in
  {
    at = Array.of_list (List.map (fun (t, _, _) -> t) events);
    ops = Array.of_list (List.map (fun (_, _, op) -> op) events);
  }

let count_admits ops =
  Array.fold_left
    (fun n op -> match op with L.Op_admit _ -> n + 1 | L.Op_release _ -> n)
    0 ops

(* Index of the script operation each release waits for (its admission);
   -1 for admissions. *)
let admit_positions ops =
  let pos = Array.make (count_admits ops) (-1) in
  let k = ref 0 in
  Array.iteri
    (fun i op ->
      match op with
      | L.Op_admit _ ->
        pos.(!k) <- i;
        incr k
      | L.Op_release _ -> ())
    ops;
  fun i ->
    match ops.(i) with L.Op_admit _ -> -1 | L.Op_release { admit } -> pos.(admit)

(* The first line of /proc/self/status with this field, parsed by [f]. *)
let proc_status field f =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.starts_with ~prefix:(field ^ ":") line -> f line
          | _ -> scan ()
          | exception End_of_file -> None
        in
        scan ())

(* Peak resident set of this process (VmHWM), in MiB. *)
let rss_mb () =
  Option.value ~default:nan
    (proc_status "VmHWM" (fun line ->
         Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)))

(* The highest processor this process may run on, from a list such as
   "0-3,6"; [None] when the list cannot be read. *)
let last_allowed_cpu () =
  proc_status "Cpus_allowed_list" (fun line ->
      let list = String.trim (List.nth (String.split_on_char ':' line) 1) in
      let last_of range = List.rev (String.split_on_char '-' range) |> List.hd in
      match List.rev (String.split_on_char ',' list) with
      | range :: _ -> int_of_string_opt (last_of range)
      | [] -> None)

(* [f] timed whole: a set-up done entirely in this process. *)
let timed f () =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

(* Median duration of [repeats] set-ups, each from a settled heap; [f]
   returns a set-up and its duration.  Every set-up but the last is handed
   to [dispose], the last is returned. *)
let repeated_setup ~repeats ~dispose f =
  let times = Array.make repeats 0.0 in
  let rec go i =
    Gc.full_major ();
    let v, secs = f () in
    times.(i) <- secs;
    if i = repeats - 1 then v
    else begin
      dispose v;
      go (i + 1)
    end
  in
  let v = go 0 in
  (Stats.median times, v)
