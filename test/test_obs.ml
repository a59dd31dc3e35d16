(* Tests for the lib/obs observability subsystem: histogram bucketing
   edge cases, exporter formats, the zero-cost disabled mode, the
   deterministic parallel metric merge, the flight-recorder journal and
   its dropped accounting, request-scoped trace sampling, the sliding
   latency window, the /metrics HTTP endpoint, the rr_cli obs
   subcommands, and the admission-validity regression the admit/reject
   counters were built to pin down. *)

module Net = Rr_wdm.Network
module Conv = Rr_wdm.Conversion
module RR = Robust_routing
module Types = RR.Types
module Router = RR.Router
module Rng = Rr_util.Rng
module Obs = Rr_obs.Obs
module Metrics = Rr_obs.Metrics
module Tracer = Rr_obs.Tracer
module Journal = Rr_obs.Journal
module Window = Rr_obs.Window
module Export = Rr_obs.Export
module Obs_http = Rr_obs.Obs_http

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let hist m name =
  match List.assoc name (Metrics.items m) with
  | Metrics.Histogram h -> h
  | _ -> Alcotest.fail (name ^ " is not a histogram")

(* ------------------------------------------------------------------ *)
(* Histogram bucketing                                                  *)

let test_hist_edges () =
  let m = Metrics.create () in
  (* Zero, negative, nan and -inf all land in bucket 0 (non-positive). *)
  Metrics.observe m "h" 0.0;
  Metrics.observe m "h" (-5.0);
  Metrics.observe m "h" Float.nan;
  Metrics.observe m "h" Float.neg_infinity;
  Metrics.observe_ns m "h" 0;
  let h = hist m "h" in
  checki "non-positive samples" 5 h.Metrics.buckets.(0);
  checki "count" 5 h.Metrics.count;
  checki "sum" 0 h.Metrics.sum_ns;
  (* max_float and +inf clamp to the top bucket, no undefined
     int_of_float. *)
  Metrics.observe m "h" Float.max_float;
  Metrics.observe m "h" Float.infinity;
  let h = hist m "h" in
  checki "top bucket" 2 h.Metrics.buckets.(Metrics.n_buckets - 1);
  checki "max is max_int" max_int h.Metrics.max_ns;
  (* 1 ns is the first positive bucket; bucket bounds are powers of two. *)
  Metrics.observe_ns m "h" 1;
  let h = hist m "h" in
  checki "1ns bucket" 1 h.Metrics.buckets.(1);
  checkb "upper bounds double" true
    (Metrics.bucket_upper_ns 4 = 2 * Metrics.bucket_upper_ns 3);
  checki "last bound is max_int" max_int
    (Metrics.bucket_upper_ns (Metrics.n_buckets - 1))

let test_hist_mean_quantile () =
  let m = Metrics.create () in
  for _ = 1 to 10 do
    Metrics.observe_ns m "h" 1000
  done;
  let h = hist m "h" in
  Alcotest.(check (float 1e-9)) "mean" 1000.0 (Metrics.mean_ns h);
  (* log2 resolution: the quantile reports its bucket's bound, clamped to
     the observed max. *)
  checkb "median within [1000, 1024]" true
    (let q = Metrics.quantile_ns h 0.5 in
     q >= 1000 && q <= 1024)

let test_metrics_kind_clash () =
  let m = Metrics.create () in
  Metrics.add m "x" 1;
  checkb "kind clash raises" true
    (try
       Metrics.observe_ns m "x" 5;
       false
     with Invalid_argument _ -> true)

let test_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add a "c" 2;
  Metrics.add b "c" 3;
  Metrics.set_gauge a "g" 1.5;
  Metrics.set_gauge b "g" 0.5;
  Metrics.observe_ns a "h" 100;
  Metrics.observe_ns b "h" 200;
  Metrics.merge_into ~into:a b;
  checki "counters add" 5 (Metrics.counter a "c");
  (match List.assoc "g" (Metrics.items a) with
   | Metrics.Gauge g -> Alcotest.(check (float 1e-9)) "gauges max" 1.5 g
   | _ -> Alcotest.fail "gauge expected");
  let h = hist a "h" in
  checki "hist count adds" 2 h.Metrics.count;
  checki "hist sum adds" 300 h.Metrics.sum_ns

(* ------------------------------------------------------------------ *)
(* Tracer ring                                                          *)

let test_tracer_ring () =
  let t = Tracer.create ~capacity:8 () in
  for i = 1 to 11 do
    Tracer.record t ~tid:0 "s" ~start_ns:i ~dur_ns:1
  done;
  checki "total" 11 (Tracer.total t);
  checki "retained" 8 (Tracer.retained t);
  checki "dropped" 3 (Tracer.dropped t);
  (* Oldest-first, and the oldest retained span is number 4. *)
  (match Tracer.spans t with
   | first :: _ -> checki "oldest retained" 4 first.Tracer.start_ns
   | [] -> Alcotest.fail "spans expected");
  Tracer.clear t;
  checki "cleared" 0 (Tracer.total t)

(* ------------------------------------------------------------------ *)
(* Disabled mode                                                        *)

let test_disabled_mode () =
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    let t0 = Obs.start Obs.null in
    Obs.add Obs.null "c" 1;
    Obs.observe_ns Obs.null "h" 5;
    Obs.stop Obs.null "s" t0
  done;
  let words = Gc.minor_words () -. before in
  (* 4000 probes: no spans, no metrics, and no allocation in the probe
     path (the small slack absorbs instrumentation of the loop itself). *)
  checkb
    (Printf.sprintf "no allocation on disabled probes (%.0f words)" words)
    true (words < 100.0);
  checki "no spans recorded" 0 (Tracer.total (Obs.tracer Obs.null));
  checki "no counters recorded" 0
    (List.length (Metrics.counters (Obs.metrics Obs.null)));
  checkb "null cannot be enabled" true
    (try
       Obs.set_enabled Obs.null true;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)

let test_exporters () =
  let obs = Obs.create () in
  Obs.add obs "admit.ok" 7;
  Obs.gauge obs "load" 0.25;
  let t0 = Obs.start obs in
  Obs.stop obs "stage.refine" t0;
  let m = Obs.metrics obs in
  let prom = Export.prometheus m in
  let has needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  checkb "prometheus counter" true (has "rr_admit_ok_total 7" prom);
  checkb "prometheus gauge" true (has "rr_load 0.25" prom);
  checkb "prometheus histogram" true (has "rr_stage_refine_ns_count 1" prom);
  checkb "prometheus +Inf bucket" true (has "le=\"+Inf\"" prom);
  let js = Export.json m in
  checkb "json counter" true (has "\"admit.ok\": {\"type\": \"counter\", \"value\": 7}" js);
  checkb "json histogram" true (has "\"type\": \"histogram\"" js);
  let tr = Export.chrome_trace (Tracer.spans (Obs.tracer obs)) in
  checkb "trace is a json array" true
    (String.length tr > 0 && tr.[0] = '[');
  checkb "trace complete event" true (has "\"ph\": \"X\"" tr);
  checkb "trace names span" true (has "\"name\": \"stage.refine\"" tr);
  Alcotest.(check string) "sanitize" "stage_refine" (Export.sanitize "stage.refine")

(* ------------------------------------------------------------------ *)
(* Deterministic metric merge across the parallel batch engine          *)

let batch_fixture () =
  let rng = Rng.create 1234 in
  let topo = Rr_topo.Random_topo.degree_bounded ~rng ~n:10 ~degree:3 in
  let net = Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:4 topo in
  let reqs =
    List.init 30 (fun _ ->
        let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:(Net.n_nodes net) in
        { Types.src = s; dst = d })
  in
  (net, reqs)

let test_parallel_merge_deterministic () =
  let net, reqs = batch_fixture () in
  let run jobs =
    let obs = Obs.create () in
    let r =
      match jobs with
      | None -> RR.Batch.route ~obs (Net.copy net) Router.Cost_approx reqs
      | Some j ->
        RR.Batch.route_parallel ~jobs:j ~obs (Net.copy net) Router.Cost_approx
          reqs
    in
    (* [parallel.*] counters record host-dependent pool sizing (the
       oversubscription clamp fires only when jobs exceeds this machine's
       recommended domain count), so they are excluded from cross-jobs
       identity — see obs.mli. *)
    let counters =
      List.filter
        (fun (name, _) -> not (String.starts_with ~prefix:"parallel." name))
        (Metrics.counters (Obs.metrics obs))
    in
    (r.RR.Batch.admitted, counters)
  in
  let seq_admitted, seq_counters = run None in
  checkb "sequential run counted work" true (List.length seq_counters > 0);
  List.iter
    (fun jobs ->
      let admitted, counters = run (Some jobs) in
      checki (Printf.sprintf "admitted (jobs=%d)" jobs) seq_admitted admitted;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "counter totals (jobs=%d)" jobs)
        seq_counters counters)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Admission-validity regression (EXPERIMENTS.md PERF-ROUTING)          *)

(* The perf-routing workload that exposed the bug: NSFNET, W=16, range-1
   converters, heavy preload.  Under the single-state layered graph,
   Approx_cost.route emitted backup semilightpaths with chained (and,
   after the first fix, link-repeating) conversions that the admission
   validator rejected — seed 47 is the scenario recorded in EXPERIMENTS.md, 48 the
   one the sweep found for the second failure class. *)
let perf_net ~preload seed =
  let rng = Rng.create seed in
  let net =
    Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:16
      ~converter:(fun _ -> Conv.Range (1, 200.0))
      Rr_topo.Reference.nsfnet
  in
  for e = 0 to Net.n_links net - 1 do
    Rr_util.Bitset.iter
      (fun l -> if Rng.uniform rng < preload then Net.allocate net e l)
      (Net.lambdas net e)
  done;
  net

let test_no_validator_rejects () =
  List.iter
    (fun (seed, preload) ->
      let net = perf_net ~preload seed in
      let rng = Rng.create (seed * 7 + 1) in
      let obs = Obs.create () in
      let ctx = Router.context net in
      for _ = 1 to 200 do
        let s, d =
          Rr_sim.Workload.random_pair rng ~n_nodes:(Net.n_nodes net)
        in
        ignore
          (Router.admit_result ~obs ctx Router.Cost_approx ~source:s ~target:d
            : (Types.solution, Types.blocked) result)
      done;
      let m = Obs.metrics obs in
      checki
        (Printf.sprintf "validator rejections (seed %d, preload %.2f)" seed
           preload)
        0
        (Metrics.counter m "admit.reject.validator");
      checki
        (Printf.sprintf "books balance (seed %d)" seed)
        200
        (Metrics.counter m "admit.ok" + Metrics.counter m "admit.blocked"))
    [ (47, 0.5); (47, 0.4); (48, 0.4); (48, 0.5); (53, 0.5) ]

(* ------------------------------------------------------------------ *)
(* Simulator books balance                                              *)

(* The probes one Cost_approx admission records — names, counter values
   and span counts — pinned so a kernel rewrite keeps /metrics meaning the
   same thing: the cache sync records its hit and [stage.aux_delta] span,
   both Suurballe passes record a kernel.dijkstra span (the pair is
   certified, so neither pass reruns), and the heap and workspace
   counters sum over every search. *)
let test_admission_probe_set () =
  let net = perf_net ~preload:0.25 47 in
  let obs = Obs.create () in
  ignore
    (Router.admit_result ~obs (Router.context net) Router.Cost_approx ~source:0
       ~target:9
      : (Types.solution, Types.blocked) result);
  let rendered =
    String.concat " "
      (List.map
         (fun (name, v) ->
           match v with
           | Metrics.Counter c -> Printf.sprintf "%s=%d" name c
           | Metrics.Histogram h -> Printf.sprintf "%s#%d" name h.Metrics.count
           | _ -> name)
         (Metrics.items (Obs.metrics obs)))
  in
  Alcotest.(check string) "pooled"
    "admit.ok=1 aux.cache.hit=1 conv.expansions=96 heap.insert=326 \
     heap.pop=255 kernel.dijkstra#2 kernel.layered#2 kernel.suurballe#1 \
     req.admit#1 stage.allocate#1 stage.aux_delta#1 stage.disjoint_pair#1 \
     stage.induce#1 stage.refine#1 stage.validate#1 workspace.hit=4"
    rendered

let test_sim_books_balance () =
  let rng = Rng.create 7 in
  let net =
    Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:8 Rr_topo.Reference.nsfnet
  in
  let workload = Rr_sim.Workload.make ~arrival_rate:2.0 ~mean_holding:10.0 in
  let cfg =
    {
      (Rr_sim.Simulator.default_config Router.Cost_approx workload) with
      duration = 200.0;
      seed = 11;
    }
  in
  let obs = Obs.create () in
  let r = Rr_sim.Simulator.run ~obs net cfg in
  let c = r.Rr_sim.Simulator.counters in
  let m = Obs.metrics obs in
  (* Failure-free, class-free run: every offered request is exactly one
     admission, so the report's counters and the obs registry must
     agree to the unit. *)
  checkb "some traffic offered" true (c.Rr_sim.Metrics.offered > 100);
  checki "admit.ok = admitted" c.Rr_sim.Metrics.admitted
    (Metrics.counter m "admit.ok");
  checki "admit.blocked = blocked" c.Rr_sim.Metrics.blocked
    (Metrics.counter m "admit.blocked");
  checki "blocking causes partition the blocked count"
    c.Rr_sim.Metrics.blocked
    (Metrics.counter m "route.block.no_disjoint_pair"
    + Metrics.counter m "route.block.no_wavelength"
    + Metrics.counter m "route.block.no_route"
    + Metrics.counter m "admit.reject.validator");
  checkb "sim spans recorded" true
    (Tracer.total (Obs.tracer obs) > 0)

(* ------------------------------------------------------------------ *)
(* Flight-recorder journal                                              *)

let test_journal_ring () =
  let j = Journal.create ~capacity:8 () in
  for i = 1 to 11 do
    Journal.record j ~t_ns:i ~tid:0 ~req:(-1) ~a:i ~b:(-1) "journal.test.tick"
  done;
  checki "capacity" 8 (Journal.capacity j);
  checki "total" 11 (Journal.total j);
  checki "retained" 8 (Journal.retained j);
  checki "dropped" 3 (Journal.dropped j);
  (match Journal.events j with
   | first :: _ ->
     (* Oldest-first; three events overwritten, so the stream resumes at
        seq 3 = the fourth record. *)
     checki "oldest retained seq" 3 first.Journal.seq;
     checki "oldest retained payload" 4 first.Journal.a
   | [] -> Alcotest.fail "events expected");
  let lines =
    String.split_on_char '\n' (Journal.to_jsonl j)
    |> List.filter (fun l -> l <> "")
  in
  checki "jsonl lines" 8 (List.length lines);
  Alcotest.(check string) "jsonl field order"
    "{\"seq\": 3, \"t_ns\": 4, \"tid\": 0, \"req\": -1, \
     \"event\": \"journal.test.tick\", \"a\": 4, \"b\": -1}"
    (List.hd lines);
  Journal.clear j;
  checki "cleared" 0 (Journal.total j);
  checki "clear keeps capacity" 8 (Journal.capacity j)

let test_dropped_counters () =
  (* Ring wrap on both sinks surfaces as trace.dropped / journal.dropped
     counters, matching the rings' own accounting. *)
  let obs = Obs.create ~trace_capacity:4 ~journal_capacity:4 () in
  for i = 0 to 9 do
    let t0 = Obs.start obs in
    Obs.stop obs "stage.refine" t0;
    Obs.event obs ~a:i "journal.admit.ok"
  done;
  let m = Obs.metrics obs in
  checki "trace.dropped counter" 6 (Metrics.counter m "trace.dropped");
  checki "journal.dropped counter" 6 (Metrics.counter m "journal.dropped");
  checki "tracer ring agrees" 6 (Tracer.dropped (Obs.tracer obs));
  checki "journal ring agrees" 6 (Journal.dropped (Obs.journal obs));
  (* Histograms are ring-independent: every stop was counted. *)
  let h = hist m "stage.refine" in
  checki "histogram saw every span" 10 h.Metrics.count

let test_anomaly_sink () =
  let obs = Obs.create () in
  let dumps = ref [] in
  Obs.set_anomaly_sink obs (fun reason jsonl ->
      dumps := (reason, jsonl) :: !dumps);
  Obs.set_request obs 7;
  Obs.event obs ~a:4 "journal.admit.blocked";
  Obs.anomaly obs "validator-reject";
  Obs.clear_request obs;
  match !dumps with
  | [ (reason, jsonl) ] ->
    Alcotest.(check string) "reason" "validator-reject" reason;
    checkb "dump holds the triggering event" true
      (contains "journal.admit.blocked" jsonl);
    checkb "dump holds the anomaly marker" true
      (contains "journal.anomaly" jsonl);
    checkb "dump is request-attributed" true (contains "\"req\": 7" jsonl)
  | _ -> Alcotest.fail "exactly one anomaly dump expected"

(* ------------------------------------------------------------------ *)
(* Request-scoped sampling                                              *)

let test_sampling_deterministic () =
  let obs = Obs.create ~sample:4 () in
  for id = 0 to 7 do
    Obs.set_request obs id;
    let t0 = Obs.start obs in
    Obs.stop obs "stage.refine" t0;
    Obs.event obs ~a:id "journal.admit.ok";
    Obs.clear_request obs
  done;
  (* 1-in-4 sampling is a pure function of the id: exactly requests 0
     and 4 reach the tracer. *)
  let spans = Tracer.spans (Obs.tracer obs) in
  Alcotest.(check (list int)) "sampled request ids" [ 0; 4 ]
    (List.map (fun s -> s.Tracer.req) spans);
  (* Histograms and the journal are never sampled out. *)
  let h = hist (Obs.metrics obs) "stage.refine" in
  checki "histogram counts every request" 8 h.Metrics.count;
  Alcotest.(check (list int)) "journal keeps every request"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.map
       (fun (e : Journal.event) -> e.Journal.req)
       (Journal.events (Obs.journal obs)));
  (* Outside any request scope spans are always traced. *)
  let t0 = Obs.start obs in
  Obs.stop obs "stage.refine" t0;
  checki "unscoped span traced" 3 (Tracer.total (Obs.tracer obs));
  checkb "sample < 1 rejected" true
    (try
       ignore (Obs.create ~sample:0 ());
       false
     with Invalid_argument _ -> true)

let test_fork_merge_request_scope () =
  let parent = Obs.create () in
  let t0 = Obs.start parent in
  Obs.stop parent "stage.refine" t0;
  let child = Obs.fork parent ~tid:3 in
  Obs.set_request child 5;
  let t1 = Obs.start child in
  Obs.stop child "kernel.dijkstra" t1;
  Obs.event child ~a:9 "journal.admit.ok";
  Obs.clear_request child;
  Obs.merge ~into:parent child;
  let spans = Tracer.spans (Obs.tracer parent) in
  checki "spans merged" 2 (List.length spans);
  let worker_span = List.nth spans 1 in
  checki "merged span keeps worker tid" 3 worker_span.Tracer.tid;
  checki "merged span keeps request id" 5 worker_span.Tracer.req;
  (match Journal.events (Obs.journal parent) with
   | [ e ] ->
     checki "merged event tid" 3 e.Journal.tid;
     checki "merged event req" 5 e.Journal.req;
     checki "merged event payload" 9 e.Journal.a
   | _ -> Alcotest.fail "one journal event expected");
  (* Chrome export after the merge: the parent's tid-0 span precedes the
     worker's tid-3 span, and request attribution survives as args. *)
  let tr = Export.chrome_trace spans in
  let idx needle =
    let n = String.length needle and h = String.length tr in
    let rec go i =
      if i + n > h then Alcotest.failf "%S not in trace" needle
      else if String.sub tr i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  checkb "tid 0 before tid 3" true (idx "\"tid\": 0" < idx "\"tid\": 3");
  checkb "request id exported as args" true
    (contains "\"args\": {\"req\": 5}" tr);
  checkb "unscoped span has no args" true
    (not (contains "\"args\": {\"req\": -1}" tr))

(* ------------------------------------------------------------------ *)
(* Sliding window                                                       *)

let test_window_rotation () =
  (* window_ns 400 over 4 slots -> 100 ns per slot; time is driven by
     hand so expiry is exact. *)
  let w = Window.create ~slots:4 ~window_ns:400 () in
  checki "window_ns" 400 (Window.window_ns w);
  checki "empty count" 0 (Window.count w ~now_ns:0);
  checki "empty quantile is 0" 0 (Window.quantile_ns w ~now_ns:0 0.99);
  Alcotest.(check (float 1e-9)) "empty mean is 0" 0.0
    (Window.mean_ns w ~now_ns:0);
  for _ = 1 to 9 do
    Window.observe_ns w ~now_ns:50 1000
  done;
  Window.observe_ns w ~now_ns:150 8000;
  checki "all samples live inside the window" 10 (Window.count w ~now_ns:399);
  checki "p50 is the 1000ns bucket bound" 1024
    (Window.quantile_ns w ~now_ns:399 0.5);
  checki "p99 reaches the tail sample" 8000
    (Window.quantile_ns w ~now_ns:399 0.99);
  (* Crossing 400 ns expires the epoch-0 slot: only the 8000 ns sample
     recorded at 150 survives. *)
  checki "old slot expires" 1 (Window.count w ~now_ns:420);
  checki "survivor drives the quantile" 8000
    (Window.quantile_ns w ~now_ns:420 0.5);
  checki "everything expires eventually" 0 (Window.count w ~now_ns:2000);
  (* Slots are reused lazily after expiry. *)
  Window.observe_ns w ~now_ns:2050 500;
  checki "slot reused" 1 (Window.count w ~now_ns:2050);
  let v = Window.view w ~now_ns:2050 in
  checki "view count" 1 v.Metrics.count;
  checki "view sum" 500 v.Metrics.sum_ns;
  checkb "invalid geometry rejected" true
    (try
       ignore (Window.create ~slots:0 ~window_ns:400 ());
       false
     with Invalid_argument _ -> true)

let test_window_behind_obs () =
  (* stop_admit feeds the window configured at Obs.create. *)
  let obs = Obs.create ~window_ns:1_000_000_000 () in
  let t0 = Obs.start obs in
  Obs.stop_admit obs t0;
  match Obs.window obs with
  | Some w ->
    checki "admit sample in window" 1 (Window.count w ~now_ns:(Obs.now_ns ()));
    let h = hist (Obs.metrics obs) "req.admit" in
    checki "req.admit histogram fed" 1 h.Metrics.count
  | None -> Alcotest.fail "window expected"

(* ------------------------------------------------------------------ *)
(* Exporter edge cases                                                  *)

let test_export_edge_cases () =
  Alcotest.(check string) "help escaping" "a\\\\b\\nc"
    (Export.escape_help "a\\b\nc");
  Alcotest.(check string) "label escaping" "a\\\\b\\\"c\\nd"
    (Export.escape_label_value "a\\b\"c\nd");
  Alcotest.(check string) "empty registry exports empty" ""
    (Export.prometheus (Metrics.create ()));
  let m = Metrics.create () in
  Metrics.add m "admit.ok" 2;
  Metrics.observe_ns m "stage.refine" 700;
  let prom = Export.prometheus ~labels:[ ("host", "a\"b") ] m in
  checkb "label attached and escaped" true
    (contains "rr_admit_ok_total{host=\"a\\\"b\"} 2" prom);
  checkb "histogram buckets merge labels with le" true
    (contains "{host=\"a\\\"b\",le=\"+Inf\"} 1" prom);
  checkb "help carries the dotted name" true
    (contains "# HELP rr_admit_ok counter admit.ok" prom);
  (* A zero-sample histogram view (an empty window) is well-defined. *)
  let v =
    {
      Metrics.count = 0; sum_ns = 0; min_ns = max_int; max_ns = 0;
      buckets = Array.make Metrics.n_buckets 0;
    }
  in
  checki "zero-sample quantile" 0 (Metrics.quantile_ns v 0.99);
  Alcotest.(check (float 1e-9)) "zero-sample mean" 0.0 (Metrics.mean_ns v)

(* ------------------------------------------------------------------ *)
(* HTTP endpoint                                                        *)

let test_http_handle () =
  let metrics () = "m 1\n" in
  let resp = Obs_http.handle ~metrics "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" in
  checkb "200 on /metrics" true (String.starts_with ~prefix:"HTTP/1.1 200" resp);
  checkb "prometheus content type" true
    (contains "Content-Type: text/plain; version=0.0.4; charset=utf-8" resp);
  checkb "content length" true (contains "Content-Length: 4" resp);
  checkb "body after blank line" true (contains "\r\n\r\nm 1\n" resp);
  checkb "query string ignored" true
    (String.starts_with ~prefix:"HTTP/1.1 200"
       (Obs_http.handle ~metrics "GET /metrics?debug=1 HTTP/1.1\r\n\r\n"));
  let healthz = Obs_http.handle ~metrics "GET /healthz HTTP/1.1\r\n\r\n" in
  checkb "healthz ok" true
    (String.starts_with ~prefix:"HTTP/1.1 200" healthz && contains "ok\n" healthz);
  checkb "404 on unknown path" true
    (String.starts_with ~prefix:"HTTP/1.1 404"
       (Obs_http.handle ~metrics "GET /nope HTTP/1.1\r\n\r\n"));
  checkb "405 on non-GET" true
    (String.starts_with ~prefix:"HTTP/1.1 405"
       (Obs_http.handle ~metrics "POST /metrics HTTP/1.1\r\n\r\n"));
  checkb "400 on garbage" true
    (String.starts_with ~prefix:"HTTP/1.1 400" (Obs_http.handle ~metrics "garbage\r\n"))

let test_http_socket () =
  let obs = Obs.create () in
  Obs.add obs "admit.ok" 3;
  let metrics () = Export.prometheus (Obs.metrics obs) in
  let fd = Obs_http.listen ~port:0 () in
  let port = Obs_http.bound_port fd in
  checkb "ephemeral port assigned" true (port > 0);
  (* Single-threaded request/response: the listen backlog holds the
     connection and the socket buffer the request until serve_once runs. *)
  let fetch path =
    let c = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect c (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let req = Printf.sprintf "GET %s HTTP/1.1\r\n\r\n" path in
    ignore (Unix.write_substring c req 0 (String.length req));
    Obs_http.serve_once ~metrics fd;
    let buf = Buffer.create 1024 in
    let b = Bytes.create 1024 in
    let rec drain () =
      let n = Unix.read c b 0 (Bytes.length b) in
      if n > 0 then begin
        Buffer.add_subbytes buf b 0 n;
        drain ()
      end
    in
    (try drain () with Unix.Unix_error _ -> ());
    Unix.close c;
    Buffer.contents buf
  in
  let scrape = fetch "/metrics" in
  checkb "scrape is 200" true (String.starts_with ~prefix:"HTTP/1.1 200" scrape);
  checkb "scrape body is live prometheus" true
    (contains "rr_admit_ok_total 3" scrape);
  checkb "healthz over the socket" true (contains "ok" (fetch "/healthz"));
  Unix.close fd

(* ------------------------------------------------------------------ *)
(* rr_cli obs subcommands                                               *)

let cli = Filename.concat (Filename.concat ".." "bin") "rr_cli.exe"

let run_cli_out args =
  let out = Filename.temp_file "rr_obs_cli" ".out" in
  let code =
    Sys.command
      (Filename.quote_command cli args ~stdout:out ~stderr:Filename.null)
  in
  let ic = open_in_bin out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, s)

let test_cli_obs_trace () =
  (* The acceptance scenario: replay a corpus instance, pick the first
     blocked admission, print its stage spans and blocking cause. *)
  let code, out =
    run_cli_out
      [ "obs"; "trace"; "blocked"; "--file";
        Filename.concat "corpus" "nsfnet_seed47_p50.wdm" ]
  in
  checki "obs trace exits 0" 0 code;
  checkb "names the blocking cause" true (contains "route.block." out);
  checkb "prints stage spans" true (contains "stage." out);
  checkb "prints the whole-admission span" true (contains "req.admit" out);
  checkb "prints the journal event" true (contains "journal.admit.blocked" out);
  (* A request id past the replay is a runtime error (exit 1). *)
  let code, _ =
    run_cli_out
      [ "obs"; "trace"; "999999"; "--file";
        Filename.concat "corpus" "nsfnet_seed47_p50.wdm" ]
  in
  checki "out-of-range id exits 1" 1 code

let test_cli_obs_summary_and_diff () =
  let tmp suffix = Filename.temp_file "rr_obs_cli" suffix in
  let j = tmp ".jsonl" and m1 = tmp ".json" and m2 = tmp ".json" in
  let sim seed metrics_file =
    let code, _ =
      run_cli_out
        [ "simulate"; "--duration"; "60"; "--erlang"; "30"; "--seed"; seed;
          "--journal"; j; "--metrics"; metrics_file; "--trace-sample"; "4" ]
    in
    checki ("simulate --seed " ^ seed ^ " exits 0") 0 code
  in
  sim "11" m1;
  sim "12" m2;
  let code, out = run_cli_out [ "obs"; "summary"; j ] in
  checki "obs summary exits 0" 0 code;
  checkb "summary counts admissions" true (contains "journal.admit" out);
  checkb "summary reports retention" true (contains "retained" out);
  let code, out = run_cli_out [ "obs"; "diff"; m1; m2 ] in
  checkb "obs diff exits 0" true (code = 0);
  checkb "different seeds differ" true (contains "changed" out);
  let code, out = run_cli_out [ "obs"; "diff"; m1; m1 ] in
  checkb "self-diff exits 0" true (code = 0);
  checkb "self-diff is empty" true (contains "no differences" out);
  List.iter Sys.remove [ j; m1; m2 ]

let suite =
  [
    ( "obs.metrics",
      [
        Alcotest.test_case "histogram edge cases" `Quick test_hist_edges;
        Alcotest.test_case "mean and quantile" `Quick test_hist_mean_quantile;
        Alcotest.test_case "kind clash" `Quick test_metrics_kind_clash;
        Alcotest.test_case "merge semantics" `Quick test_merge;
      ] );
    ( "obs.tracer",
      [ Alcotest.test_case "ring retention" `Quick test_tracer_ring ] );
    ( "obs.journal",
      [
        Alcotest.test_case "ring retention and jsonl" `Quick test_journal_ring;
        Alcotest.test_case "dropped counters on ring wrap" `Quick
          test_dropped_counters;
        Alcotest.test_case "anomaly sink dumps the journal" `Quick
          test_anomaly_sink;
      ] );
    ( "obs.request",
      [
        Alcotest.test_case "deterministic 1-in-N sampling" `Quick
          test_sampling_deterministic;
        Alcotest.test_case "fork/merge keeps request scope" `Quick
          test_fork_merge_request_scope;
      ] );
    ( "obs.window",
      [
        Alcotest.test_case "rotation, quantiles, expiry" `Quick
          test_window_rotation;
        Alcotest.test_case "stop_admit feeds the window" `Quick
          test_window_behind_obs;
      ] );
    ( "obs.disabled",
      [ Alcotest.test_case "no spans, no allocation" `Quick test_disabled_mode ] );
    ( "obs.export",
      [
        Alcotest.test_case "prometheus/json/chrome" `Quick test_exporters;
        Alcotest.test_case "escaping, labels, empty and zero-sample" `Quick
          test_export_edge_cases;
      ] );
    ( "obs.http",
      [
        Alcotest.test_case "request handling is pure" `Quick test_http_handle;
        Alcotest.test_case "loopback scrape" `Quick test_http_socket;
      ] );
    ( "obs.cli",
      [
        Alcotest.test_case "obs trace replays a blocked admission" `Slow
          test_cli_obs_trace;
        Alcotest.test_case "obs summary and diff" `Slow
          test_cli_obs_summary_and_diff;
      ] );
    ( "obs.parallel",
      [
        Alcotest.test_case "deterministic merge across jobs" `Slow
          test_parallel_merge_deterministic;
      ] );
    ( "obs.regression",
      [
        Alcotest.test_case "admission probe set" `Quick test_admission_probe_set;
        Alcotest.test_case "no validator rejects at high preload" `Slow
          test_no_validator_rejects;
        Alcotest.test_case "simulator books balance" `Slow
          test_sim_books_balance;
      ] );
  ]
