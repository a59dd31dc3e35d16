(* The four workloads.  Each builds its inputs, sets up several times and
   keeps the median set-up time, measures, then checks the outputs.  An
   untraced run reports the end-to-end metrics; a traced run reports the
   layer metrics, from spans the benchmark records around its own calls
   into each layer.

   Sizes follow the run length: every per-second constant below was
   measured on a 2-vCPU x86-64 virtual machine so that a run spends about
   [seconds] measuring. *)

open Rr_ledger
module Net = Rr_wdm.Network
module L = Rr_serve.Loadgen
module P = Rr_serve.Protocol
module Types = Robust_routing.Types
module Router = Robust_routing.Router
module Batch = Robust_routing.Batch
module Parallel = Robust_routing.Parallel
module Sim = Rr_sim.Simulator
module Workload = Rr_sim.Workload
module Obs = Rr_obs.Obs
module R = Report

type params = { seed : int; seconds : float; trace : bool }

(* Traces and per-workload results, relative to the working directory. *)
let out_dir = ".ledger"

let setups = 15
let us ns = Array.map (fun x -> x /. 1e3) ns
let sized rate seconds = max 8 (int_of_float (Float.round (rate *. seconds)))

(* The machine this was sized on slows down by up to half, for spells of
   a second to minutes.  Timings of busy work are scaled by the reference
   kernel ({!Rr_ledger.Pace}); within a run, figures are medians over
   contiguous time blocks: five for medians and rates, two for p99s (so
   each block still holds 1 000 samples at full size).  Closed-loop
   workloads pause between blocks for a reference bracket, outside every
   timed span. *)
let median_blocks = 5
let tail_blocks = 2

(* Run [f lo hi] over [median_blocks] consecutive ranges of [0, n), with
   a reference bracket in each pause; the per-block results in order. *)
let in_blocks n f =
  Array.init median_blocks (fun b ->
      if b > 0 then Pace.bracket ();
      f (b * n / median_blocks) ((b + 1) * n / median_blocks))

(* ------------------------------------------------------------------ *)
(* Layer metrics shared by every traced run                             *)

(* Transport: lockstep pings, then [window] pings in flight, against a
   daemon serving this workload's network.  Forks, so it runs before any
   domain pool exists. *)
let transport_layer r net =
  let d, c = Daemon.ready net in
  let lock, piped = Daemon.ping_phases c ~n:1000 ~window:32 in
  ignore (Daemon.shutdown d c : float);
  R.percentile r "server.ping_rtt_p50_us" ~at_most:0.5 (us lock);
  R.percentile r "server.pipelined_rtt_p99_us" ~at_most:0.99 (us piped)

(* The layers of admission: replay [ops] through the library, the
   recomposed pipeline (spans) and Serve.Core.handle, on copies of [net]. *)
let admission_layers r net ops ~gate =
  let rp = Mirror.replay net ops in
  List.iter (fun m -> R.problem r "%s" m) rp.Mirror.mismatches;
  R.attempt r rp.Mirror.ops;
  let m = rp.Mirror.rec_ in
  let sp = m.Mirror.spans and c = m.Mirror.c in
  let d i = Span.durations sp i in
  let self = Span.self_ns sp in
  let sum_by pred f =
    let acc = ref 0 in
    for k = 0 to Span.length sp - 1 do
      if pred k then acc := !acc + f k
    done;
    float_of_int !acc
  in
  let is n k = Span.name sp k = n in
  let self_share n = sum_by (is n) (fun k -> self.(k)) /. sum_by (is n) (Span.duration_ns sp) in
  R.mean r "protocol.decode_ns" (d Mirror.s_decode);
  R.mean r "protocol.encode_ns" (d Mirror.s_encode);
  R.add r "protocol.bytes_per_op" (R.ratio rp.Mirror.bytes rp.Mirror.ops);
  R.mean r "core.admit_us" (us rp.Mirror.core_admit_ns);
  R.mean r "core.release_us" (us rp.Mirror.core_release_ns);
  R.add r "core.unattributed_share" (self_share Mirror.s_admit);
  R.mean r "router.admit_us" (us rp.Mirror.lib_admit_ns);
  R.mean r "aux_cache.sync_us" (us (d Mirror.s_sync));
  R.percentile r "aux_cache.sync_p99_us" ~at_most:0.99 (us (d Mirror.s_sync));
  R.add r "aux_cache.links_touched" (R.ratio c.Mirror.touched c.Mirror.syncs);
  R.add r "aux_cache.full_rebuild_ratio" (R.ratio c.Mirror.full_rebuilds c.Mirror.syncs);
  R.mean r "auxiliary.pair_us" (us (d Mirror.s_pair));
  R.percentile r "auxiliary.pair_p99_us" ~at_most:0.99 (us (d Mirror.s_pair));
  R.add r "auxiliary.no_pair_ratio" (R.ratio c.Mirror.no_pair c.Mirror.admits);
  R.mean r "layered.refine_us" (us (d Mirror.s_refine));
  if Array.length (d Mirror.s_refine) > 0 then
    R.percentile r "layered.refine_p99_us" ~at_most:0.99 (us (d Mirror.s_refine))
  else R.add r "layered.refine_p99_us" 0.0;
  R.add r "layered.nonsimple_ratio" (R.ratio c.Mirror.nonsimple c.Mirror.refines);
  R.mean r "types.validate_us" (us (d Mirror.s_validate));
  R.mean r "types.allocate_us" (us (d Mirror.s_allocate));
  R.mean r "types.release_us" (us (d Mirror.s_types_release));
  let admits = float_of_int (max 1 rp.Mirror.admits) in
  R.add r "gc.minor_words_per_admit" (rp.Mirror.lib_minor_words /. admits);
  R.add r "gc.major_per_1k_admits" (float_of_int rp.Mirror.lib_major *. 1000.0 /. admits);
  R.add r "trace.overhead_ratio"
    (Stats.mean (d Mirror.s_admit) /. Stats.mean rp.Mirror.lib_admit_ns);
  let unattributed = self_share Mirror.s_request in
  R.add r "trace.unattributed_share" unattributed;
  if gate && unattributed > 0.05 then
    R.problem r "layers explain %.1f%% of the traced request time (need 95%%)"
      (100.0 *. (1.0 -. unattributed));
  if Span.dropped sp > 0 then R.problem r "%d spans dropped" (Span.dropped sp);
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s.json" r.R.workload) in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Span.chrome_json sp))

(* Outcome counts over admission replies: blocking ratio and the mean
   Eq. 1 cost of admitted solutions. *)
let outcome_metrics r ~admitted ~blocked ~cost =
  R.add r "blocking_ratio" (R.ratio blocked (admitted + blocked));
  R.add r "cost_per_admit" (if admitted = 0 then 0.0 else cost /. float_of_int admitted)

(* Close a run: a last reference bracket, times scaled to reference
   speed, then the figures that are not times.  The kernel gauges the
   host's processor speed, which sets every timing of busy work, in this
   process or the daemon.  It does not gauge how fast the host wakes an
   idle processor, which sets open-loop latencies at a low rate: those
   are added with [~scaled:false] and stay as measured. *)
let finish r ~rss =
  Pace.bracket ();
  R.scale r (Pace.factor ());
  if not r.R.trace then begin
    R.add r "rss_mb" rss;
    R.add r "failed_ratio" (R.ratio r.R.failed (max 1 r.R.attempted))
  end;
  R.check_listed_metrics r

(* ------------------------------------------------------------------ *)
(* serve-steady                                                         *)

(* Phase 1's rate: the daemon writes each reply without TCP_NODELAY, so
   with one request per write a reply queued behind an unacknowledged one
   can wait for the client's delayed ACK; at 200/s the p99 is already tens
   of milliseconds.  Much above it, latency grows with run length and
   stops being a property of the daemon.  Phase 2 writes each round of 32
   at once, so the daemon reads and answers a round in one go and runs
   at its own speed. *)
let serve_rate = 200.0
let serve_erlang = 60.0
let serve_window = 32
let serve_phase1_share = 0.5
let serve_phase2_rate = 1500.0  (* phase-2 admits per second of run *)

type phase = {
  sent_req : P.request array;  (* in send order *)
  replies : P.response array;  (* aligned with [sent_req] *)
  n_sent : int;
  lat_from_due_ns : float array;  (* per admission *)
  gen_lag_ns : float array;  (* per operation sent *)
  first_sent : int;
  last_reply : int;
}

(* Drive one script over the connection: operations in script order, at
   most [window] in flight, each at [t0 + due.(i)] (all at once when
   [due] is [None]); a release waits for its admission's reply and
   carries the id it returned.  With [~burst:true] each round goes out as
   one write. *)
let drive ?(burst = false) c ~ops ~due ~window =
  let n = Array.length ops in
  let depends = Setup.admit_positions ops in
  let sent_req = Array.make n P.Ping and sent_op = Array.make n (-1) in
  let replies = Array.make n P.Pong in
  let op_reply = Array.make n None in
  let n_sent = ref 0 and answered = ref 0 in
  let last_progress = ref (Setup.now_ns ()) in
  let send i =
    let req =
      match ops.(i) with
      | L.Op_admit { src; dst } -> Some (P.Admit { src; dst; policy = None })
      | L.Op_release _ -> (
        match op_reply.(depends i) with
        | Some (P.Admitted { id; _ }) -> Some (P.Release { id })
        | _ -> None)
    in
    match req with
    | None -> false
    | Some req ->
      if burst then Daemon.queue c req else Daemon.send c req;
      sent_req.(!n_sent) <- req;
      sent_op.(!n_sent) <- i;
      incr n_sent;
      true
  in
  let recv ~deadline =
    Daemon.flush c;
    let now = Setup.now_ns () in
    let k = Daemon.poll c ~timeout_ns:(deadline - now) in
    for _ = 1 to k do
      let resp = Queue.pop c.Daemon.replies in
      replies.(!answered) <- resp;
      op_reply.(sent_op.(!answered)) <- Some resp;
      incr answered
    done;
    if k > 0 then last_progress := Setup.now_ns ()
    else if !answered < !n_sent && Setup.now_ns () - !last_progress > Daemon.reply_timeout_ns
    then failwith "daemon stopped answering";
    k
  in
  let t0 = Setup.now_ns () + 1_000_000 in
  let due_ns =
    match due with
    | Some at -> Array.map (fun s -> t0 + int_of_float (s *. 1e9)) at
    | None -> Array.make n t0
  in
  let res =
    Openloop.run ~burst { Openloop.now = Setup.now_ns; send; recv } ~due:due_ns ~window ~depends
  in
  let lat = ref [] and lag = ref [] and first = ref max_int and last = ref 0 in
  Array.iteri
    (fun i s ->
      if s >= 0 then begin
        let reply = res.Openloop.reply_ns.(i) in
        lag := float_of_int (s - due_ns.(i)) :: !lag;
        first := min !first s;
        last := max !last reply;
        match ops.(i) with
        | L.Op_admit _ -> lat := float_of_int (reply - due_ns.(i)) :: !lat
        | L.Op_release _ -> ()
      end)
    res.Openloop.sent_ns;
  let arr l = Array.of_list (List.rev l) in
  {
    sent_req;
    replies;
    n_sent = !n_sent;
    lat_from_due_ns = arr !lat;
    gen_lag_ns = arr !lag;
    first_sent = !first;
    last_reply = !last;
  }

(* The daemon's replies against a library replay of what it was sent:
   same ids, outcomes and costs, releases acknowledged. *)
let check_against_library r net phases =
  let lib = Mirror.library (Net.copy net) in
  List.iter
    (fun ph ->
      for j = 0 to ph.n_sent - 1 do
        let resp = ph.replies.(j) in
        match ph.sent_req.(j) with
        | P.Admit { src; dst; _ } ->
          let out = Mirror.lib_admit lib ~src ~dst in
          if not (Mirror.same_outcome lib.Mirror.net out resp) then
            R.problem r "admission %d: daemon reply differs from the library replay" (fst out)
        | P.Release { id } ->
          let ok = Mirror.lib_release lib id in
          (match resp with
           | P.Released { id = id' } when ok && id = id' -> ()
           | _ -> R.problem r "release of %d: daemon reply differs from the library replay" id)
        | _ -> ()
      done)
    phases

let serve p r =
  let net = Setup.nsfnet () in
  let n_nodes = Net.n_nodes net in
  let model = Workload.make ~arrival_rate:serve_rate ~mean_holding:(serve_erlang /. serve_rate) in
  let n1 = sized (serve_rate *. serve_phase1_share) p.seconds in
  let s1 = Setup.script ~drain:true ~seed:p.seed ~n_nodes ~admits:n1 model in
  if p.trace then begin
    transport_layer r net;
    admission_layers r net s1.Setup.ops ~gate:true;
    finish r ~rss:nan
  end
  else begin
    (* Set-up is the daemon's construction, timed here: [rr serve] starts
       by exec, so the fork's copy-on-write faults and a first round trip
       are not part of its start-up. *)
    let setup_s, srv =
      Setup.repeated_setup ~repeats:setups ~dispose:Rr_serve.Server.shutdown
        (Setup.timed (fun () -> Daemon.server (Setup.nsfnet ())))
    in
    Rr_serve.Server.shutdown srv;
    R.add r "setup_s" setup_s;
    let d, c = Daemon.ready net in
    (* At most [serve_window] in flight: the daemon answers [busy] past
       64 requests in one pump round, and phase 1's final releases all
       fall due at once. *)
    let ph1 = drive c ~ops:s1.Setup.ops ~due:(Some s1.Setup.at) ~window:serve_window in
    (* Phase 2 keeps the daemon busy, so like the closed-loop workloads it
       runs in blocks with a reference bracket between them: each block a
       script of its own, drained, so the next starts from an empty
       network. *)
    let n2 = sized (serve_phase2_rate /. float_of_int median_blocks) p.seconds in
    let ph2 =
      List.init median_blocks (fun b ->
          Pace.bracket ();
          let s2 = Setup.script ~drain:true ~seed:(p.seed + (7919 * (b + 1))) ~n_nodes ~admits:n2 model in
          drive ~burst:true c ~ops:s2.Setup.ops ~due:None ~window:serve_window)
    in
    let rss = Daemon.shutdown d c in
    let lat = us ph1.lat_from_due_ns in
    R.percentile r ~scaled:false "admit_p50_us" ~blocks:median_blocks ~at_most:0.5 lat;
    R.percentile r ~scaled:false "admit_p99_us" ~blocks:tail_blocks ~at_most:0.99 lat;
    R.percentile r ~scaled:false "client.gen_lag_p99_us" ~blocks:tail_blocks ~at_most:0.99
      (us ph1.gen_lag_ns);
    let rate ph =
      float_of_int (Array.length ph.lat_from_due_ns)
      /. (float_of_int (ph.last_reply - ph.first_sent) /. 1e9)
    in
    R.add r ~samples:(n2 * median_blocks) "admits_per_s"
      (Stats.median (Array.of_list (List.map rate ph2)));
    let admitted = ref 0 and blocked = ref 0 and cost = ref 0.0 in
    List.iter
      (fun ph ->
        R.attempt r ph.n_sent;
        for j = 0 to ph.n_sent - 1 do
          match ph.replies.(j) with
          | P.Admitted { cost = c; _ } ->
            incr admitted;
            cost := !cost +. c
          | P.Blocked _ -> incr blocked
          | P.Released _ -> ()
          | P.Error { kind; msg } -> R.problem r "error reply (%s): %s" (P.error_kind_name kind) msg
          | _ -> R.problem r "unexpected reply"
        done)
      (ph1 :: ph2);
    outcome_metrics r ~admitted:!admitted ~blocked:!blocked ~cost:!cost;
    check_against_library r net (ph1 :: ph2);
    finish r ~rss
  end

(* ------------------------------------------------------------------ *)
(* lib-wan400                                                           *)

let lib_n = 400
let lib_topo_seed = 4001
let lib_erlang = 1200.0
let lib_rate = 260.0  (* admits per second of run *)
let lib_trace_share = 0.35

let lib_net () = Setup.wan ~n:lib_n ~seed:lib_topo_seed

let lib p r =
  let script admits =
    Setup.script ~seed:p.seed ~n_nodes:lib_n ~admits
      (Workload.make ~arrival_rate:1.0 ~mean_holding:lib_erlang)
  in
  if p.trace then begin
    let net = lib_net () in
    transport_layer r net;
    let s = script (sized (lib_rate *. lib_trace_share) p.seconds) in
    admission_layers r net s.Setup.ops ~gate:true;
    finish r ~rss:nan
  end
  else begin
    let setup_s, m =
      Setup.repeated_setup ~repeats:setups ~dispose:ignore
        (Setup.timed (fun () -> Mirror.library (lib_net ())))
    in
    R.add r "setup_s" setup_s;
    let ops = (script (sized lib_rate p.seconds)).Setup.ops in
    let n_admits = Setup.count_admits ops in
    let lat = Array.make n_admits 0.0 in
    let admitted = ref 0 and cost = ref 0.0 and k = ref 0 in
    let rates =
      in_blocks (Array.length ops) (fun lo hi ->
          let k0 = !k and t0 = Setup.now_ns () in
          for i = lo to hi - 1 do
            match ops.(i) with
            | L.Op_admit { src; dst } ->
              let t = Setup.now_ns () in
              let _, sol = Mirror.lib_admit m ~src ~dst in
              lat.(!k) <- float_of_int (Setup.now_ns () - t);
              incr k;
              Option.iter
                (fun s ->
                  incr admitted;
                  cost := !cost +. Types.total_cost m.Mirror.net s)
                sol
            | L.Op_release { admit } -> ignore (Mirror.lib_release m admit : bool)
          done;
          float_of_int (!k - k0) /. Setup.seconds_since t0)
    in
    R.attempt r n_admits;
    R.percentile r "admit_p50_us" ~blocks:median_blocks ~at_most:0.5 (us lat);
    R.percentile r "admit_p99_us" ~blocks:tail_blocks ~at_most:0.99 (us lat);
    R.add r ~samples:n_admits "admits_per_s" (Stats.median rates);
    outcome_metrics r ~admitted:!admitted ~blocked:(n_admits - !admitted) ~cost:!cost;
    (* Books balance: the wavelengths in use are exactly the live
       connections' footprints. *)
    let held = Hashtbl.fold (fun _ s acc -> acc + List.length (Router.footprint s)) m.Mirror.live 0 in
    if held <> Net.total_in_use m.Mirror.net then
      R.problem r "network holds %d wavelength-links, live connections %d"
        (Net.total_in_use m.Mirror.net) held;
    finish r ~rss:(Setup.rss_mb ())
  end

(* ------------------------------------------------------------------ *)
(* batch-wan100                                                         *)

let batch_n = 100
let batch_topo_seed = 1001
let batch_size = 32
let batch_rate = 17.0  (* batches per second of run *)
let batch_jobs = 2

(* Every batch starts from the same residual state (each is released
   after routing), so checking a fixed subset against the sequential
   engine checks the run; Batch.route costs more than the pool. *)
let batch_check_every = 4

let batch_net () =
  let net = Setup.wan ~n:batch_n ~seed:batch_topo_seed in
  Setup.preload net ~seed:(batch_topo_seed + 2) ~share:0.25;
  net

let batches ~seed ~count =
  let rng = Rr_util.Rng.create seed in
  Array.init count (fun _ ->
      List.init batch_size (fun _ ->
          let src, dst = Workload.random_pair rng ~n_nodes:batch_n in
          { Types.src; dst }))

let release_all net (res : Batch.result) =
  List.iter
    (fun (o : Batch.outcome) -> Option.iter (Types.release net) o.Batch.solution)
    res.Batch.outcomes

(* A batch stream as an admit/release script: each batch's admissions,
   then the release of every one of them. *)
let batch_script bs =
  let k = ref 0 in
  Array.concat
    (Array.to_list
       (Array.map
          (fun reqs ->
            let first = !k in
            let admits = List.map (fun { Types.src; dst } -> L.Op_admit { src; dst }) reqs in
            k := !k + List.length reqs;
            Array.of_list
              (admits @ List.init (List.length reqs) (fun i -> L.Op_release { admit = first + i })))
          bs))

let batch p r =
  if p.trace then begin
    let net = batch_net () in
    transport_layer r net;
    let bs = batches ~seed:p.seed ~count:(sized (batch_rate /. 4.0) p.seconds) in
    admission_layers r net (batch_script bs) ~gate:false;
    (* Batch.route against route_parallel on the same stream. *)
    let obs = Obs.create () in
    let mirror = Net.copy net in
    let seq_ns = ref [] and par_ns = ref [] in
    Parallel.with_pool ~jobs:batch_jobs (fun pool ->
        R.add r "parallel.effective_jobs" (float_of_int (Parallel.size pool));
        Array.iter
          (fun reqs ->
            let t = Setup.now_ns () in
            let par = Batch.route_parallel ~pool net Router.Cost_approx reqs in
            par_ns := float_of_int (Setup.now_ns () - t) :: !par_ns;
            let t = Setup.now_ns () in
            let seq = Batch.route ~obs mirror Router.Cost_approx reqs in
            seq_ns := float_of_int (Setup.now_ns () - t) :: !seq_ns;
            R.attempt r batch_size;
            if compare par seq <> 0 then R.problem r "route_parallel differs from Batch.route";
            release_all net par;
            release_all mirror seq)
          bs);
    let seq = Array.of_list !seq_ns and par = Array.of_list !par_ns in
    R.mean r "batch.seq_ms" (Array.map (fun x -> x /. 1e6) seq);
    R.add r "batch.parallel_speedup" (Stats.mean seq /. Stats.mean par);
    let counter name = Rr_obs.Metrics.counter (Obs.metrics obs) name in
    R.add r "batch.fallback_ratio"
      (R.ratio (counter "batch.conflict.fallbacks") (Array.length bs * batch_size));
    R.add r "batch.components_per_batch"
      (R.ratio (counter "batch.conflict.components") (Array.length bs));
    finish r ~rss:nan
  end
  else begin
    let setup_s, (net, pool) =
      Setup.repeated_setup ~repeats:setups
        ~dispose:(fun (_, pool) -> Parallel.shutdown pool)
        (Setup.timed (fun () ->
          let net = batch_net () in
          let pool = Parallel.create ~jobs:batch_jobs () in
          (* Warm the pool: its shards are built on first use. *)
          release_all net
            (Batch.route_parallel ~pool net Router.Cost_approx
               (batches ~seed:0 ~count:1).(0));
          (net, pool)))
    in
    R.add r "setup_s" setup_s;
    let mirror = Net.copy net in
    let bs = batches ~seed:p.seed ~count:(sized batch_rate p.seconds) in
    let times = Array.make (Array.length bs) 0.0 in
    let admitted = ref 0 and dropped = ref 0 and cost = ref 0.0 in
    let rates =
      Fun.protect
        ~finally:(fun () -> Parallel.shutdown pool)
        (fun () ->
          in_blocks (Array.length bs) (fun lo hi ->
              let busy = ref 0.0 in
              for i = lo to hi - 1 do
                let reqs = bs.(i) in
                let t = Setup.now_ns () in
                let res = Batch.route_parallel ~pool net Router.Cost_approx reqs in
                times.(i) <- float_of_int (Setup.now_ns () - t);
                busy := !busy +. times.(i);
                admitted := !admitted + res.Batch.admitted;
                dropped := !dropped + res.Batch.dropped;
                cost := !cost +. res.Batch.total_cost;
                release_all net res;
                if i mod batch_check_every = 0 then begin
                  let seq = Batch.route mirror Router.Cost_approx reqs in
                  if compare res seq <> 0 then
                    R.problem r "batch %d: route_parallel differs from Batch.route" i;
                  release_all mirror seq
                end
              done;
              float_of_int ((hi - lo) * batch_size) /. (!busy /. 1e9)))
    in
    let requests = Array.length bs * batch_size in
    R.attempt r requests;
    let ms = Array.map (fun x -> x /. 1e6) times in
    R.percentile r "batch_p50_ms" ~blocks:median_blocks ~at_most:0.5 ms;
    R.percentile r "batch_p95_ms" ~at_most:0.95 ms;
    (* Every request of a batch waits for the whole batch. *)
    let per_request = Array.concat (Array.to_list (Array.map (Array.make batch_size) (us times))) in
    R.percentile r "admit_p50_us" ~blocks:median_blocks ~at_most:0.5 per_request;
    R.percentile r "admit_p99_us" ~blocks:tail_blocks ~at_most:0.99 per_request;
    R.add r ~samples:requests "admits_per_s" (Stats.median rates);
    outcome_metrics r ~admitted:!admitted ~blocked:!dropped ~cost:!cost;
    finish r ~rss:(Setup.rss_mb ())
  end

(* ------------------------------------------------------------------ *)
(* sim-failover                                                         *)

let sim_erlang = 40.0
let sim_duration_rate = 45.0  (* simulated time units per second of run *)
let sim_repeats = 3
let sim_trace_share = 0.3

let sim_config net ~seed ~duration =
  let m = Net.n_links net in
  let rates = Array.init m (fun e -> if e mod 3 = 0 then 0.0 else 0.01) in
  let groups =
    Robust_routing.Srlg.conduits_of_topology ~rng:(Rr_util.Rng.create 107) net ~conduits:8
  in
  {
    (Sim.default_config Router.Cost_approx
       (Workload.make ~arrival_rate:sim_erlang ~mean_holding:1.0))
    with
    Sim.duration;
    seed;
    link_fail_rates = Some rates;
    link_repair_rates = Some (Array.make m (1.0 /. 5.0));
    srlg = Some (groups, 0.1);
    regional = Some (0.02, 1);
    reprovision_backup = true;
    partial_protection = Some (Robust_routing.Partial_protect.exposure_of_rates rates);
  }

let sim p r =
  if p.trace then begin
    let net = Setup.eon () in
    transport_layer r net;
    let duration = sim_duration_rate *. sim_trace_share *. p.seconds in
    let s =
      Setup.script ~seed:p.seed ~n_nodes:(Net.n_nodes net)
        ~admits:(int_of_float (sim_erlang *. duration))
        (Workload.make ~arrival_rate:sim_erlang ~mean_holding:1.0)
    in
    admission_layers r net s.Setup.ops ~gate:false;
    let cfg = sim_config net ~seed:p.seed ~duration in
    let t = Setup.now_ns () in
    let plain = Sim.run net cfg in
    let plain_s = Setup.seconds_since t in
    let obs = Obs.create () in
    let traced = Sim.run ~obs net cfg in
    let c = plain.Sim.counters in
    R.attempt r c.Rr_sim.Metrics.offered;
    if compare plain traced <> 0 then R.problem r "traced Simulator.run report differs";
    let counter name = Rr_obs.Metrics.counter (Obs.metrics obs) name in
    let attempts = counter "restore.attempt" in
    R.add r "sim.us_per_arrival" (plain_s *. 1e6 /. float_of_int (max 1 c.Rr_sim.Metrics.offered));
    R.add r "sim.failure_events" (float_of_int c.Rr_sim.Metrics.failures_injected);
    R.add r "restore.attempts_per_1k"
      (1000.0 *. R.ratio attempts c.Rr_sim.Metrics.offered);
    R.add r "restore.switch_ratio" (R.ratio (counter "restore.switch") attempts);
    R.add r "restore.reroute_ratio" (R.ratio (counter "restore.reroute") attempts);
    R.add r "restore.drop_ratio" (R.ratio (counter "restore.dropped") attempts);
    let seg = counter "survive.partial.segmented" in
    R.add r "partial.segmented_ratio"
      (R.ratio seg (seg + counter "survive.partial.full_fallback"));
    R.add r "sim.backup_hops_per_admit"
      (R.ratio plain.Sim.backup_hops_reserved c.Rr_sim.Metrics.admitted);
    finish r ~rss:nan
  end
  else begin
    let duration = sim_duration_rate *. p.seconds /. float_of_int sim_repeats in
    let setup_s, (net, cfg) =
      (* A simulation starts by building its network and its auxiliary
         cache; Simulator.run builds its own cache, so this one only
         times that step. *)
      Setup.repeated_setup ~repeats:setups ~dispose:ignore
        (Setup.timed (fun () ->
             let net = Setup.eon () in
             ignore (Rr_wdm.Aux_cache.create net : Rr_wdm.Aux_cache.t);
             (net, sim_config net ~seed:p.seed ~duration)))
    in
    R.add r "setup_s" setup_s;
    let runs =
      List.init sim_repeats (fun i ->
          if i > 0 then Pace.bracket ();
          let t = Setup.now_ns () in
          let rep = Sim.run net cfg in
          (Setup.seconds_since t, rep))
    in
    let rep = snd (List.hd runs) in
    if List.exists (fun (_, x) -> compare x rep <> 0) runs then
      R.problem r "repeated Simulator.run reports differ";
    let c = rep.Sim.counters in
    let offered = c.Rr_sim.Metrics.offered in
    R.attempt r offered;
    let secs = Stats.median (Array.of_list (List.map fst runs)) in
    (* Single arrivals are not observable from outside Simulator.run, so
       both latency metrics report the mean time per arrival. *)
    let per_arrival = secs *. 1e6 /. float_of_int (max 1 offered) in
    R.add r ~samples:sim_repeats "admit_p50_us" per_arrival;
    R.add r ~samples:sim_repeats "admit_p99_us" per_arrival;
    R.add r ~samples:offered "admits_per_s" (float_of_int offered /. secs);
    R.add r "blocking_ratio" (Rr_sim.Metrics.blocking_probability c);
    R.add r "cost_per_admit" (Rr_sim.Metrics.mean_admitted_cost c);
    R.add r "availability" rep.Sim.availability;
    finish r ~rss:(Setup.rss_mb ())
  end

let all = [ ("serve-steady", serve); ("lib-wan400", lib); ("batch-wan100", batch); ("sim-failover", sim) ]
