(* rr — command-line front end for the robust-routing library.

     rr topo --name nsfnet
     rr route --topo nsfnet -s 0 -d 13 --policy cost-approx -w 8
     rr simulate --topo eon --policy load-cost --erlang 30 --duration 400
     rr audit --topo nsfnet -w 4 *)

open Cmdliner

module Net = Rr_wdm.Network
module RR = Robust_routing
module Router = RR.Router

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)

let topo_conv =
  let parse s =
    match s with
    | "nsfnet" -> Ok Rr_topo.Reference.nsfnet
    | "eon" -> Ok Rr_topo.Reference.eon
    | _ -> (
      match String.split_on_char ':' s with
      | [ "ring"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 3 -> Ok (Rr_topo.Reference.ring n)
        | _ -> Error (`Msg "ring:<n> needs n >= 3"))
      | [ "grid"; r; c ] -> (
        match (int_of_string_opt r, int_of_string_opt c) with
        | Some r, Some c when r >= 1 && c >= 1 -> Ok (Rr_topo.Reference.grid r c)
        | _ -> Error (`Msg "grid:<rows>:<cols>"))
      | [ "torus"; r; c ] -> (
        match (int_of_string_opt r, int_of_string_opt c) with
        | Some r, Some c when r >= 3 && c >= 3 -> Ok (Rr_topo.Reference.torus r c)
        | _ -> Error (`Msg "torus:<rows>:<cols> needs both >= 3"))
      | [ "waxman"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 2 ->
          Ok (Rr_topo.Random_topo.waxman ~rng:(Rr_util.Rng.create 1) ~n ())
        | _ -> Error (`Msg "waxman:<n>"))
      | _ -> Error (`Msg (Printf.sprintf "unknown topology %S" s)))
  in
  let print fmt t = Format.fprintf fmt "%s" t.Rr_topo.Fitout.t_name in
  Arg.conv (parse, print)

let topo_arg =
  let doc =
    "Topology: nsfnet, eon, ring:<n>, grid:<rows>:<cols>, torus:<rows>:<cols> or waxman:<n>."
  in
  Arg.(value & opt topo_conv Rr_topo.Reference.nsfnet & info [ "topo"; "t" ] ~doc)

let policy_conv =
  let parse s =
    match Router.policy_of_string s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown policy %S; one of %s" s
             (String.concat ", " (List.map Router.policy_name Router.all_policies))))
  in
  Arg.conv (parse, fun fmt p -> Format.fprintf fmt "%s" (Router.policy_name p))

let policy_arg =
  let doc = "Routing policy." in
  Arg.(value & opt policy_conv Router.Cost_approx & info [ "policy"; "p" ] ~doc)

let wavelengths_arg =
  Arg.(value & opt int 8 & info [ "wavelengths"; "w" ] ~doc:"Wavelengths per fibre.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let file_arg =
  let doc = "Load the network from a .wdm description file instead of --topo." in
  Arg.(value & opt (some file) None & info [ "file"; "f" ] ~doc)

let build_net topo w seed =
  Rr_topo.Fitout.fit_out ~rng:(Rr_util.Rng.create seed) ~n_wavelengths:w topo

let resolve_net file topo w seed =
  match file with
  | None -> build_net topo w seed
  | Some path -> (
    match Rr_wdm.Network_io.parse_file path with
    | Ok net -> net
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 1)

(* ------------------------------------------------------------------ *)
(* topo                                                                 *)

(* ------------------------------------------------------------------ *)
(* observability: --metrics / --trace sinks                             *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "rr_cli: %s\n" msg;
      exit 1)
    fmt

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Export the run's routing metrics (per-stage latency histograms, \
           admission and blocking-cause counters): Prometheus exposition \
           text, or a JSON dump when $(docv) ends in .json.  Use - for \
           stdout.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Export the span timeline as Chrome trace_event JSON — load it in \
           chrome://tracing or Perfetto.  Use - for stdout.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Dump the flight recorder (admission outcomes with blocking \
           causes, failure/repair flips, conflict fallbacks, cache \
           rebuilds) as JSON Lines — feed it to $(b,rr obs summary).  Use \
           - for stdout.")

let sample_arg =
  Arg.(
    value
    & opt int 1
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "Trace only requests whose id is a multiple of $(docv) \
           (deterministic 1-in-N span sampling; histograms and the \
           journal still see every request).  Default 1 = trace all.")

(* Catch unwritable sinks before the run, not after minutes of work. *)
let check_writable = function
  | None | Some "-" -> ()
  | Some path -> (
    match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
    | oc -> close_out oc
    | exception Sys_error e -> die "cannot write %s: %s" path e)

let obs_of metrics trace journal sample =
  check_writable metrics;
  check_writable trace;
  check_writable journal;
  if sample < 1 then die "--trace-sample must be at least 1 (got %d)" sample;
  if metrics = None && trace = None && journal = None then Rr_obs.Obs.null
  else Rr_obs.Obs.create ~sample ()

let write_sink path contents =
  if path = "-" then print_string contents
  else begin
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  end

let export_obs obs metrics trace journal =
  (match metrics with
   | None -> ()
   | Some path ->
     let m = Rr_obs.Obs.metrics obs in
     let doc =
       if Filename.check_suffix path ".json" then Rr_obs.Export.json m
       else Rr_obs.Export.prometheus m
     in
     write_sink path doc);
  (match trace with
   | None -> ()
   | Some path ->
     write_sink path
       (Rr_obs.Export.chrome_trace (Rr_obs.Tracer.spans (Rr_obs.Obs.tracer obs))));
  match journal with
  | None -> ()
  | Some path ->
    write_sink path (Rr_obs.Journal.to_jsonl (Rr_obs.Obs.journal obs))

let topo_cmd =
  let run topo =
    Printf.printf "%s: %d nodes, %d directed links\n" topo.Rr_topo.Fitout.t_name
      topo.Rr_topo.Fitout.t_nodes
      (List.length topo.Rr_topo.Fitout.t_links);
    List.iter
      (fun (u, v, w) -> Printf.printf "  %2d -> %2d  (%.0f)\n" u v w)
      topo.Rr_topo.Fitout.t_links
  in
  Cmd.v (Cmd.info "topo" ~doc:"Print a topology's links.")
    Term.(const run $ topo_arg)

(* ------------------------------------------------------------------ *)
(* route                                                                *)

let route_cmd =
  let src =
    Arg.(required & opt (some int) None & info [ "source"; "s" ] ~doc:"Source node.")
  in
  let dst =
    Arg.(required & opt (some int) None & info [ "dest"; "d" ] ~doc:"Destination node.")
  in
  let run topo file policy w seed s d metrics trace journal sample =
    let obs = obs_of metrics trace journal sample in
    let net = resolve_net file topo w seed in
    if s < 0 || s >= Net.n_nodes net || d < 0 || d >= Net.n_nodes net || s = d then
      die "invalid node pair %d -> %d" s d;
    let result = Router.route ~obs (Router.context net) policy ~source:s ~target:d in
    export_obs obs metrics trace journal;
    match result with
    | Error b ->
      Printf.printf "no robust route from %d to %d under policy %s (%s)\n" s d
        (Router.policy_name policy) (RR.Types.blocked_name b);
      exit 2
    | Ok sol ->
      Format.printf "%a@." (RR.Types.pp net) sol;
      Printf.printf "total cost %.3f\n" (RR.Types.total_cost net sol)
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Compute a robust route for one request.")
    Term.(
      const run $ topo_arg $ file_arg $ policy_arg $ wavelengths_arg $ seed_arg
      $ src $ dst $ metrics_arg $ trace_arg $ journal_arg $ sample_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                             *)

(* --failures "link=0.02,hardened=0:1,mttr=25,srlg=0.01,region=0.002:1"
   parsed into the simulator's failure-process fields.  [file_groups] are
   srlg tags read from a --file network description (preferred over
   synthetic conduits when present). *)
let apply_failure_spec net ~seed ~file_groups spec cfg =
  let fail fmt = Printf.ksprintf (fun m -> die "--failures: %s" m) fmt in
  let m = Net.n_links net in
  let link = ref None and srlg_rate = ref None and region = ref None in
  let repair = ref None and mttr = ref None in
  let hardened = ref [] and conduits = ref 8 and node = ref None in
  let float_v key v =
    match float_of_string_opt v with
    | Some f when f >= 0.0 -> f
    | _ -> fail "%s expects a non-negative number, got %S" key v
  in
  let tokens =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> not (String.equal s ""))
  in
  if List.is_empty tokens then fail "empty spec";
  List.iter
    (fun tok ->
      match String.index_opt tok '=' with
      | None -> fail "token %S is not key=value" tok
      | Some i -> (
        let key = String.sub tok 0 i in
        let v = String.sub tok (i + 1) (String.length tok - i - 1) in
        match key with
        | "link" -> link := Some (float_v key v)
        | "node" -> node := Some (float_v key v)
        | "srlg" -> srlg_rate := Some (float_v key v)
        | "repair" -> repair := Some (float_v key v)
        | "mttr" ->
          let t = float_v key v in
          if t <= 0.0 then fail "mttr must be positive";
          mttr := Some t
        | "region" -> (
          match String.split_on_char ':' v with
          | [ r; rad ] -> (
            match (float_of_string_opt r, int_of_string_opt rad) with
            | Some r, Some rad when r >= 0.0 && rad >= 0 ->
              region := Some (r, rad)
            | _ -> fail "region expects RATE:RADIUS")
          | _ -> fail "region expects RATE:RADIUS")
        | "hardened" ->
          hardened :=
            List.map
              (fun s ->
                match int_of_string_opt s with
                | Some e when e >= 0 && e < m -> e
                | _ -> fail "hardened link %S out of range (0..%d)" s (m - 1))
              (String.split_on_char ':' v)
        | "conduits" -> (
          match int_of_string_opt v with
          | Some c when c >= 1 -> conduits := c
          | _ -> fail "conduits expects a positive integer")
        | k -> fail "unknown key %S" k))
    tokens;
  let link_fail_rates =
    match (!link, !hardened) with
    | None, [] -> None
    | None, _ :: _ -> fail "hardened=... requires link=RATE"
    | Some r, h ->
      let a = Array.make m r in
      List.iter (fun e -> a.(e) <- 0.0) h;
      Some a
  in
  let link_repair_rates =
    Option.map (fun t -> Array.make m (1.0 /. t)) !mttr
  in
  let srlg =
    match !srlg_rate with
    | None -> None
    | Some r ->
      let groups =
        match file_groups with
        | Some g -> g
        | None ->
          RR.Srlg.conduits_of_topology
            ~rng:(Rr_util.Rng.create (seed + 7))
            net ~conduits:!conduits
      in
      Some (groups, r)
  in
  {
    cfg with
    Rr_sim.Simulator.link_fail_rates;
    link_repair_rates;
    srlg;
    regional = !region;
    node_failure_rate =
      Option.value ~default:cfg.Rr_sim.Simulator.node_failure_rate !node;
    repair_time = Option.value ~default:cfg.Rr_sim.Simulator.repair_time !repair;
  }

let simulate_cmd =
  let erlang =
    Arg.(value & opt float 20.0 & info [ "erlang" ] ~doc:"Offered load (arrival rate x holding).")
  in
  let duration =
    Arg.(value & opt float 300.0 & info [ "duration" ] ~doc:"Simulated time.")
  in
  let failure_rate =
    Arg.(value & opt float 0.0 & info [ "failure-rate" ] ~doc:"Link failures per unit time.")
  in
  let node_failure_rate =
    Arg.(value & opt float 0.0 & info [ "node-failure-rate" ] ~doc:"Node outages per unit time.")
  in
  let reprovision =
    Arg.(value & flag & info [ "reprovision" ] ~doc:"Re-provision backups after switch-over.")
  in
  let failures_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "failures" ] ~docv:"SPEC"
          ~doc:
            "Correlated-failure scenario as comma-separated key=value \
             tokens.  $(b,link=R) arms an independent exponential failure \
             clock of rate R on every fibre; $(b,hardened=I:J:K) zeroes \
             the rate on the listed links; $(b,mttr=T) repairs each \
             failure after an exponential delay of mean T (otherwise the \
             constant $(b,repair=T), default 40); $(b,srlg=R) cuts a \
             whole shared-risk group at rate R ($(b,conduits=N) synthetic \
             trenches, default 8, or the srlg directives of --file); \
             $(b,region=R:D) fails every node within D hops of a random \
             centre at rate R; $(b,node=R) equals --node-failure-rate.")
  in
  let partial =
    Arg.(
      value & flag
      & info [ "partial" ]
          ~doc:
            "Partial path protection: reserve backup detours only for the \
             failure-exposed sub-segments of each primary (the links with \
             a non-zero failure rate under $(b,--failures); every link \
             when exposure cannot be inferred), falling back to the full \
             edge-disjoint pair when segmentation does not pay.")
  in
  let run topo file policy w seed erlang duration failure_rate node_failure_rate
      reprovision failures partial metrics trace journal sample =
    let obs = obs_of metrics trace journal sample in
    let net, file_groups =
      match file with
      | None -> (build_net topo w seed, None)
      | Some path -> (
        let text = In_channel.with_open_bin path In_channel.input_all in
        match Rr_wdm.Network_io.parse_srlg text with
        | Ok (net, groups) ->
          let tagged = Array.exists (fun gs -> not (List.is_empty gs)) groups in
          (net, if tagged then Some groups else None)
        | Error e -> die "%s: %s" path e)
    in
    let workload =
      Rr_sim.Workload.make ~arrival_rate:(erlang /. 10.0) ~mean_holding:10.0
    in
    let cfg =
      {
        (Rr_sim.Simulator.default_config policy workload) with
        duration;
        seed;
        failure_rate;
        node_failure_rate;
        reprovision_backup = reprovision;
        repair_time = 40.0;
      }
    in
    let cfg =
      match failures with
      | None -> cfg
      | Some spec -> apply_failure_spec net ~seed ~file_groups spec cfg
    in
    let cfg =
      if not partial then cfg
      else
        let exposure =
          match cfg.Rr_sim.Simulator.link_fail_rates with
          | Some rates -> RR.Partial_protect.exposure_of_rates rates
          | None -> RR.Partial_protect.All
        in
        { cfg with Rr_sim.Simulator.partial_protection = Some exposure }
    in
    let r = Rr_sim.Simulator.run ~obs net cfg in
    export_obs obs metrics trace journal;
    let c = r.Rr_sim.Simulator.counters in
    Printf.printf "policy            %s\n" (Router.policy_name policy);
    Printf.printf "offered           %d\n" c.offered;
    Printf.printf "admitted          %d\n" c.admitted;
    Printf.printf "blocking          %.2f%%\n"
      (100.0 *. Rr_sim.Metrics.blocking_probability c);
    Printf.printf "mean network load %.3f (peak %.3f)\n" r.mean_load r.peak_load;
    Printf.printf "reconfig triggers %d\n" c.reconfigurations;
    Printf.printf "backup hops       %d\n" r.backup_hops_reserved;
    if failure_rate > 0.0 || node_failure_rate > 0.0 || Option.is_some failures
    then begin
      Printf.printf "failures          %d (node outages %d, srlg cuts %d, regional %d)\n"
        c.failures_injected r.node_failures r.srlg_failures r.regional_failures;
      Printf.printf "switch-overs      %d\n" c.restorations_ok;
      Printf.printf "passive reroutes  %d\n" c.passive_reroutes_ok;
      Printf.printf "endpoint losses   %d\n" c.endpoint_losses;
      Printf.printf "dropped           %d\n" r.dropped;
      Printf.printf "reprovisioned     %d\n" r.backups_reprovisioned;
      Printf.printf "restoration       %.1f%%\n"
        (100.0 *. Rr_sim.Metrics.restoration_success c);
      Printf.printf "availability      %.6f (carried %.1f, lost %.1f Erlang-time)\n"
        r.availability r.carried_time r.lost_time
    end
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a dynamic-traffic simulation.")
    Term.(
      const run $ topo_arg $ file_arg $ policy_arg $ wavelengths_arg $ seed_arg
      $ erlang $ duration $ failure_rate $ node_failure_rate $ reprovision
      $ failures_arg $ partial $ metrics_arg $ trace_arg $ journal_arg
      $ sample_arg)

(* ------------------------------------------------------------------ *)
(* audit                                                                *)

let audit_cmd =
  let run topo w seed =
    let net = build_net topo w seed in
    let n = Net.n_nodes net in
    let ctx = Router.context net in
    let stranded = ref 0 and ok = ref 0 in
    for s = 0 to n - 1 do
      for d = 0 to n - 1 do
        if s <> d then
          if Result.is_error (Router.route ctx Router.Cost_approx ~source:s ~target:d)
          then begin
            incr stranded;
            Printf.printf "stranded: %d -> %d\n" s d
          end
          else incr ok
      done
    done;
    Printf.printf "%d/%d ordered pairs protectable\n" !ok (!ok + !stranded);
    if !stranded = 0 then print_endline "topology survives any single link failure"
  in
  Cmd.v
    (Cmd.info "audit" ~doc:"Check protected-service availability for all pairs.")
    Term.(const run $ topo_arg $ wavelengths_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                              *)

let analyze_cmd =
  let run topo =
    let report = Rr_topo.Analysis.analyse topo in
    Printf.printf "%s:\n" topo.Rr_topo.Fitout.t_name;
    Format.printf "%a@." Rr_topo.Analysis.pp report;
    if not report.Rr_topo.Analysis.two_edge_connected then
      print_endline
        "warning: bridge fibres present — some pairs cannot be protected \
         against link failure";
    if not report.Rr_topo.Analysis.biconnected then
      print_endline
        "warning: articulation points present — some pairs cannot be \
         protected against node failure"
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Structural survivability analysis of a topology.")
    Term.(const run $ topo_arg)

(* ------------------------------------------------------------------ *)
(* batch                                                                *)

let batch_cmd =
  let size =
    Arg.(value & opt int 20 & info [ "size" ] ~doc:"Requests per batch.")
  in
  let order_conv =
    let parse = function
      | "fifo" -> Ok RR.Batch.Fifo
      | "shortest-first" -> Ok RR.Batch.Shortest_first
      | "longest-first" -> Ok RR.Batch.Longest_first
      | "random" -> Ok (RR.Batch.Random 1)
      | s -> Error (`Msg (Printf.sprintf "unknown order %S" s))
    in
    Arg.conv (parse, fun fmt o -> Format.fprintf fmt "%s" (RR.Batch.order_name o))
  in
  let order =
    Arg.(value & opt order_conv RR.Batch.Fifo & info [ "order" ] ~doc:"Processing order.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ]
          ~doc:
            "Route the batch with the speculative two-phase engine on N \
             worker domains (N >= 1).  Omitted: the paper's sequential \
             one-by-one discipline.")
  in
  let run topo policy w seed size order jobs metrics trace journal sample =
    (match jobs with
     | Some j when j < 1 -> die "--jobs must be at least 1 (got %d)" j
     | Some j when j > RR.Parallel.recommended_jobs () ->
       (* Parallel.create clamps the pool rather than oversubscribing the
          machine; say so instead of silently running narrower. *)
       Printf.eprintf
         "rr batch: --jobs %d exceeds this machine's %d recommended \
          domain(s); clamping the pool to %d\n%!"
         j
         (RR.Parallel.recommended_jobs ())
         (RR.Parallel.recommended_jobs ())
     | _ -> ());
    let obs = obs_of metrics trace journal sample in
    let net = build_net topo w seed in
    let rng = Rr_util.Rng.create seed in
    let reqs =
      List.init size (fun _ ->
          let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:(Net.n_nodes net) in
          { RR.Types.src = s; dst = d })
    in
    let r =
      match jobs with
      | None -> RR.Batch.process ~order ~obs net policy reqs
      | Some jobs -> RR.Batch.route_parallel ~order ~jobs ~obs net policy reqs
    in
    export_obs obs metrics trace journal;
    List.iter
      (fun o ->
        match o.RR.Batch.solution with
        | Some sol ->
          Printf.printf "%2d -> %2d  admitted  cost %.1f\n" o.RR.Batch.request.RR.Types.src
            o.RR.Batch.request.RR.Types.dst (RR.Types.total_cost net sol)
        | None ->
          Printf.printf "%2d -> %2d  DROPPED\n" o.RR.Batch.request.RR.Types.src
            o.RR.Batch.request.RR.Types.dst)
      r.RR.Batch.outcomes;
    Printf.printf "\nadmitted %d / %d, total cost %.1f, final load %.3f\n"
      r.RR.Batch.admitted size r.RR.Batch.total_cost r.RR.Batch.final_load
  in
  Cmd.v
    (Cmd.info "batch" ~doc:"Process one batch of random requests (Section 2).")
    Term.(
      const run $ topo_arg $ policy_arg $ wavelengths_arg $ seed_arg $ size
      $ order $ jobs $ metrics_arg $ trace_arg $ journal_arg $ sample_arg)

(* ------------------------------------------------------------------ *)
(* provision                                                            *)

let provision_cmd =
  let demands =
    Arg.(value & opt int 12 & info [ "demands" ] ~doc:"Number of random demands.")
  in
  let improve =
    Arg.(value & flag & info [ "improve" ] ~doc:"Run pairwise local search after the sequential pass.")
  in
  let run topo file policy w seed demands improve =
    let net = resolve_net file topo w seed in
    let rng = Rr_util.Rng.create (seed + 1) in
    let reqs =
      List.init demands (fun _ ->
          let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:(Net.n_nodes net) in
          { RR.Types.src = s; dst = d })
    in
    let plan =
      if improve then RR.Provisioning.local_search ~policy net reqs
      else RR.Provisioning.sequential ~policy net reqs
    in
    List.iter
      (fun p ->
        match p.RR.Provisioning.solution with
        | Some sol ->
          Printf.printf "%2d -> %2d  served  cost %.1f\n"
            p.RR.Provisioning.request.RR.Types.src
            p.RR.Provisioning.request.RR.Types.dst
            (RR.Types.total_cost net sol)
        | None ->
          Printf.printf "%2d -> %2d  UNSERVED\n"
            p.RR.Provisioning.request.RR.Types.src
            p.RR.Provisioning.request.RR.Types.dst)
      plan.RR.Provisioning.placements;
    Printf.printf
      "\nserved %d/%d, total cost %.1f, final load %.3f, improvement steps %d\n"
      plan.RR.Provisioning.served demands plan.RR.Provisioning.total_cost
      plan.RR.Provisioning.network_load plan.RR.Provisioning.iterations
  in
  Cmd.v
    (Cmd.info "provision" ~doc:"Statically provision a random demand set.")
    Term.(
      const run $ topo_arg $ file_arg $ policy_arg $ wavelengths_arg $ seed_arg
      $ demands $ improve)

(* ------------------------------------------------------------------ *)
(* check — property-based differential fuzzing                          *)

(* The flags are taken as raw strings and validated by hand so that every
   misuse (non-integer seed, --trials 0, unknown case) exits with code 2
   and one usage line — cmdliner's own conversion errors use a different
   exit code and a much noisier rendering. *)
let check_cmd =
  let seed_arg =
    Arg.(value & opt string "1" & info [ "seed" ] ~docv:"INT" ~doc:"Root PRNG seed.")
  in
  let trials_arg =
    Arg.(value & opt string "100" & info [ "trials" ] ~docv:"INT" ~doc:"Trials per case (>= 1).")
  in
  let max_n_arg =
    Arg.(
      value
      & opt string "9"
      & info [ "max-n" ] ~docv:"INT" ~doc:"Largest generated node count (>= 3).")
  in
  let only_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"CASES"
          ~doc:"Comma-separated case names to run (default: all).")
  in
  let replay_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a stored counterexample (repro text produced on a \
             property failure, or a test/corpus entry) instead of fuzzing. \
             Repeatable.")
  in
  let run seed trials max_n only replay =
    let usage msg =
      Printf.eprintf "rr_cli check: %s\n" msg;
      Printf.eprintf
        "usage: rr check [--seed INT] [--trials INT>=1] [--max-n INT>=3] \
         [--only CASE[,CASE...]]  (cases: %s)\n"
        (String.concat ", " Rr_check.Harness.case_names);
      exit 2
    in
    let int_flag name v =
      match int_of_string_opt v with
      | Some i -> i
      | None -> usage (Printf.sprintf "--%s expects an integer, got %S" name v)
    in
    let seed = int_flag "seed" seed in
    let trials = int_flag "trials" trials in
    if trials < 1 then usage (Printf.sprintf "--trials must be >= 1 (got %d)" trials);
    let max_n = int_flag "max-n" max_n in
    if max_n < 3 then usage (Printf.sprintf "--max-n must be >= 3 (got %d)" max_n);
    let only =
      match only with
      | None -> []
      | Some s ->
        let names =
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun x -> x <> "")
        in
        if names = [] then usage "--only expects at least one case name";
        List.iter
          (fun n ->
            if not (Rr_check.Harness.is_case n) then
              usage (Printf.sprintf "unknown case %S" n))
          names;
        names
    in
    if replay <> [] then begin
      (* --only alongside --replay re-targets the corpus instances at a
         single named case instead of the one in their headers. *)
      let case =
        match only with
        | [] -> None
        | [ c ] -> Some c
        | _ -> usage "--replay with --only expects exactly one case"
      in
      let failed = ref false in
      List.iter
        (fun file ->
          let text =
            try
              let ic = open_in file in
              let len = in_channel_length ic in
              let s = really_input_string ic len in
              close_in ic;
              s
            with Sys_error m -> usage m
          in
          match Rr_check.Harness.replay ?case text with
          | Ok () ->
            Printf.printf "rr-check: %s ok%s\n" file
              (match case with None -> "" | Some c -> " [case " ^ c ^ "]")
          | Error m ->
            Printf.printf "rr-check: %s FAILED: %s\n" file m;
            failed := true)
        replay;
      exit (if !failed then 1 else 0)
    end;
    let reports =
      Rr_check.Harness.run ~log:print_endline ~seed ~trials ~max_n ~only ()
    in
    let failures =
      List.filter_map (fun r -> r.Rr_check.Harness.failure) reports
    in
    List.iter (fun f -> Format.printf "%a" Rr_check.Harness.pp_failure f) failures;
    if failures <> [] then exit 1;
    Printf.printf "rr-check: %d cases x %d trials, all properties hold (seed %d)\n"
      (List.length reports) trials seed
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Property-based differential fuzzing: generated scenarios against \
          invariants, exact/ILP oracles and metamorphic properties, with \
          counterexample shrinking.")
    Term.(const run $ seed_arg $ trials_arg $ max_n_arg $ only_arg $ replay_arg)

(* ------------------------------------------------------------------ *)
(* dot                                                                  *)

let dot_cmd =
  let src = Arg.(value & opt (some int) None & info [ "source"; "s" ] ~doc:"Route source.") in
  let dst = Arg.(value & opt (some int) None & info [ "dest"; "d" ] ~doc:"Route destination.") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file (default stdout).") in
  let run topo file policy w seed s d out =
    let net = resolve_net file topo w seed in
    let highlight =
      match (s, d) with
      | Some s, Some d -> (
        match Router.route (Router.context net) policy ~source:s ~target:d with
        | Error b ->
          Printf.eprintf "no robust route %d -> %d (%s)\n" s d (RR.Types.blocked_name b);
          exit 2
        | Ok sol ->
          let prim =
            List.map (fun e -> (e, "blue")) (Rr_wdm.Semilightpath.links sol.RR.Types.primary)
          in
          let back =
            match sol.RR.Types.backup with
            | Some b -> List.map (fun e -> (e, "red")) (Rr_wdm.Semilightpath.links b)
            | None -> []
          in
          prim @ back)
      | _ -> []
    in
    let dot = Rr_wdm.Network_io.to_dot ~highlight net in
    match out with
    | None -> print_string dot
    | Some path ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc dot);
      Printf.printf "wrote %s (primary blue, backup red)\n" path
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the network (optionally with a routed pair) as GraphViz.")
    Term.(
      const run $ topo_arg $ file_arg $ policy_arg $ wavelengths_arg $ seed_arg
      $ src $ dst $ out)

(* ------------------------------------------------------------------ *)
(* obs — inspect observability artefacts                                *)

(* Decodes a [journal.admit.blocked] payload to the counter its cause is
   counted under. *)
let cause_name code =
  match RR.Types.blocked_of_code code with
  | Some b -> RR.Types.blocked_counter b
  | None -> Printf.sprintf "code %d" code

(* One journal line in Journal.to_jsonl's fixed field order; [None] for
   anything else (foreign or corrupted lines are skipped, not fatal). *)
let parse_journal_line line =
  match
    Scanf.sscanf line
      "{\"seq\": %d, \"t_ns\": %d, \"tid\": %d, \"req\": %d, \"event\": %S, \
       \"a\": %d, \"b\": %d}"
      (fun seq t_ns tid req name a b -> (seq, t_ns, tid, req, name, a, b))
  with
  | parsed -> Some parsed
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

let read_lines path =
  match open_in path with
  | exception Sys_error e -> die "%s" e
  | ic ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

let obs_summary_cmd =
  let journal =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOURNAL" ~doc:"Journal dump (JSON Lines, from --journal).")
  in
  let run path =
    let events = List.filter_map parse_journal_line (read_lines path) in
    if events = [] then die "%s: no journal events" path;
    let by_name = Hashtbl.create 16 in
    let causes = Hashtbl.create 8 in
    let bump tbl k =
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
    in
    let min_seq = ref max_int and max_req = ref (-1) in
    List.iter
      (fun (seq, _, _, req, name, a, _) ->
        if seq < !min_seq then min_seq := seq;
        if req > !max_req then max_req := req;
        bump by_name name;
        if String.equal name "journal.admit.blocked" then
          bump causes (cause_name a))
      events;
    Printf.printf "%s: %d event(s) retained, %d dropped to ring wrap%s\n" path
      (List.length events) !min_seq
      (if !max_req >= 0 then Printf.sprintf ", request ids up to %d" !max_req
       else "");
    (* lint: ordered — folded to a list and sorted before printing *)
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.iter (fun (name, n) -> Printf.printf "  %-28s %6d\n" name n);
    (* lint: ordered — folded to a list and sorted before printing *)
    let cs =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) causes []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    if cs <> [] then begin
      Printf.printf "blocking causes:\n";
      List.iter (fun (name, n) -> Printf.printf "  %-28s %6d\n" name n) cs
    end
  in
  Cmd.v
    (Cmd.info "summary"
       ~doc:"Summarize a flight-recorder dump: event counts, drop count, \
             blocking causes.")
    Term.(const run $ journal)

let obs_trace_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID"
          ~doc:
            "Request id to print, or the literal $(b,blocked) for the first \
             blocked admission of the replay.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Also export the request's spans as Chrome trace JSON.")
  in
  let run id_s topo file policy w seed out =
    let usage msg =
      Printf.eprintf "rr_cli obs trace: %s\n" msg;
      Printf.eprintf
        "usage: rr obs trace <ID|blocked> [--file FILE | --topo NAME] \
         [--policy P] [--wavelengths W] [--seed S] [--trace OUT]\n";
      exit 2
    in
    let id_spec =
      match id_s with
      | "blocked" -> `First_blocked
      | s -> (
        match int_of_string_opt s with
        | Some n when n >= 0 -> `Id n
        | _ -> usage (Printf.sprintf "ID must be a request id >= 0 or %S" "blocked"))
    in
    let net = resolve_net file topo w seed in
    (* Deterministic corpus replay: admit every ordered pair ascending,
       request ids 0.., sampling off so every request's spans survive. *)
    let obs = Rr_obs.Obs.create () in
    let ctx = Router.context net in
    let n = Net.n_nodes net in
    let pairs = ref [] in
    let rid = ref 0 in
    for s = 0 to n - 1 do
      for d = 0 to n - 1 do
        if s <> d then begin
          ignore
            (Router.admit_result ~obs ~req:!rid ctx policy ~source:s ~target:d
              : (RR.Types.solution, RR.Types.blocked) result);
          pairs := (!rid, (s, d)) :: !pairs;
          incr rid
        end
      done
    done;
    let events = Rr_obs.Journal.events (Rr_obs.Obs.journal obs) in
    let target =
      match id_spec with
      | `Id id ->
        if id >= !rid then
          die "request id %d out of range (replay made %d admissions)" id !rid;
        id
      | `First_blocked -> (
        match
          List.find_opt
            (fun e -> String.equal e.Rr_obs.Journal.name "journal.admit.blocked")
            events
        with
        | Some e -> e.Rr_obs.Journal.req
        | None -> die "no blocked admission in this replay")
    in
    let s, d = List.assoc target !pairs in
    let ev = List.filter (fun e -> e.Rr_obs.Journal.req = target) events in
    let outcome =
      match
        List.find_opt
          (fun e ->
            String.equal e.Rr_obs.Journal.name "journal.admit.ok"
            || String.equal e.Rr_obs.Journal.name "journal.admit.blocked")
          ev
      with
      | Some e when String.equal e.Rr_obs.Journal.name "journal.admit.ok" ->
        "admitted"
      | Some e -> Printf.sprintf "BLOCKED (%s)" (cause_name e.Rr_obs.Journal.a)
      | None -> "no outcome recorded"
    in
    Printf.printf "request %d: %d -> %d under %s — %s\n" target s d
      (Router.policy_name policy) outcome;
    let spans =
      List.filter
        (fun sp -> sp.Rr_obs.Tracer.req = target)
        (Rr_obs.Tracer.spans (Rr_obs.Obs.tracer obs))
    in
    let base =
      List.fold_left
        (fun acc sp -> min acc sp.Rr_obs.Tracer.start_ns)
        max_int spans
    in
    Printf.printf "  %-22s %12s %12s\n" "span" "at (us)" "dur (us)";
    List.iter
      (fun sp ->
        Printf.printf "  %-22s %12.1f %12.1f\n" sp.Rr_obs.Tracer.name
          (float_of_int (sp.Rr_obs.Tracer.start_ns - base) /. 1e3)
          (float_of_int sp.Rr_obs.Tracer.dur_ns /. 1e3))
      spans;
    (match out with
     | None -> ()
     | Some path ->
       check_writable (Some path);
       write_sink path (Rr_obs.Export.chrome_trace spans));
    List.iter
      (fun e ->
        Printf.printf "  event %-22s a=%d b=%d\n" e.Rr_obs.Journal.name
          e.Rr_obs.Journal.a e.Rr_obs.Journal.b)
      ev
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay all-pairs admissions on a network and pretty-print one \
          request's stage spans, blocking cause and journal events.")
    Term.(
      const run $ id_arg $ topo_arg $ file_arg $ policy_arg $ wavelengths_arg
      $ seed_arg $ out_arg)

(* Counter and histogram-count extraction from Export.json dumps: enough
   structure for a before/after diff without a JSON parser dependency. *)
let parse_metrics_dump path =
  let metrics = ref [] in
  let int_after line key =
    let pat = "\"" ^ key ^ "\": " in
    let pl = String.length pat in
    let n = String.length line in
    let rec find i =
      if i + pl > n then None
      else if String.equal (String.sub line i pl) pat then begin
        let j = ref (i + pl) in
        if !j < n && line.[!j] = '-' then incr j;
        let digits_from = !j in
        while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
        if !j > digits_from then
          int_of_string_opt (String.sub line (i + pl) (!j - (i + pl)))
        else None
      end
      else find (i + 1)
    in
    find 0
  in
  List.iter
    (fun line ->
      match Scanf.sscanf line " %S" (fun name -> name) with
      | name -> (
        let has key =
          let pat = "\"" ^ key ^ "\"" in
          let pl = String.length pat and n = String.length line in
          let rec go i =
            i + pl <= n
            && (String.equal (String.sub line i pl) pat || go (i + 1))
          in
          go 0
        in
        if has "counter" then
          match int_after line "value" with
          | Some v -> metrics := (name, `Counter v) :: !metrics
          | None -> ()
        else if has "histogram" then
          match int_after line "count" with
          | Some c -> metrics := (name, `Hist_count c) :: !metrics
          | None -> ())
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ())
    (read_lines path);
  List.rev !metrics

let obs_diff_cmd =
  let a_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BEFORE" ~doc:"Earlier metrics dump (--metrics x.json).")
  in
  let b_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"AFTER" ~doc:"Later metrics dump (--metrics y.json).")
  in
  let run a b =
    let ma = parse_metrics_dump a and mb = parse_metrics_dump b in
    if ma = [] then die "%s: no metrics found (expecting an Export.json dump)" a;
    if mb = [] then die "%s: no metrics found (expecting an Export.json dump)" b;
    let names =
      List.sort_uniq String.compare (List.map fst ma @ List.map fst mb)
    in
    let value m name = List.assoc_opt name m in
    let changed = ref 0 in
    List.iter
      (fun name ->
        let pr label va vb =
          incr changed;
          Printf.printf "  %-32s %10d -> %-10d (%+d)\n" (name ^ label) va vb
            (vb - va)
        in
        match (value ma name, value mb name) with
        | Some (`Counter va), Some (`Counter vb) when va <> vb -> pr "" va vb
        | Some (`Hist_count va), Some (`Hist_count vb) when va <> vb ->
          pr "[count]" va vb
        | None, Some (`Counter vb) -> pr "" 0 vb
        | None, Some (`Hist_count vb) -> pr "[count]" 0 vb
        | Some (`Counter va), None -> pr "" va 0
        | Some (`Hist_count va), None -> pr "[count]" va 0
        | _ -> ())
      names;
    if !changed = 0 then print_endline "no differences"
    else Printf.printf "%d metric(s) changed\n" !changed
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Diff two JSON metrics dumps: counter and histogram-count deltas.")
    Term.(const run $ a_arg $ b_arg)

(* ------------------------------------------------------------------ *)
(* serve / loadgen                                                      *)

let serve_cmd =
  let port_arg =
    Arg.(
      value & opt int 0
      & info [ "port" ]
          ~doc:
            "Control port on 127.0.0.1 (0 picks an ephemeral port; the bound \
             port is printed on stdout as $(b,serve: port=N)).")
  in
  let http_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "http-port" ]
          ~doc:
            "Also serve $(b,/metrics) and $(b,/healthz) on this loopback \
             port (0 = ephemeral, printed as $(b,serve: http=N)).")
  in
  let queue_arg =
    Arg.(
      value
      & opt int Rr_serve.Server.default_queue_capacity
      & info [ "queue" ]
          ~doc:
            "Bounded admission-queue capacity per event-loop round; requests \
             beyond it are answered $(b,busy).")
  in
  let restore_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "restore" ] ~docv:"SNAPSHOT"
          ~doc:
            "Boot from a snapshot file (as returned by the $(b,snapshot) \
             request) instead of --topo/--file.")
  in
  let run topo file policy w seed port http_port queue restore =
    if queue < 1 then die "--queue must be at least 1 (got %d)" queue;
    let obs = Rr_obs.Obs.create ~window_ns:1_000_000_000 () in
    let core =
      match restore with
      | Some path -> (
        let text = In_channel.with_open_bin path In_channel.input_all in
        match Rr_serve.Core.of_snapshot ~policy ~obs text with
        | Ok core -> core
        | Error e -> die "restore %s: %s" path e)
      | None -> Rr_serve.Core.create ~policy ~obs (resolve_net file topo w seed)
    in
    let srv =
      try Rr_serve.Server.create ~queue_capacity:queue ?http_port ~port core
      with Unix.Unix_error (e, _, _) -> die "bind: %s" (Unix.error_message e)
    in
    Printf.printf "serve: port=%d\n" (Rr_serve.Server.port srv);
    (match Rr_serve.Server.http_port srv with
     | Some p -> Printf.printf "serve: http=%d\n" p
     | None -> ());
    Printf.printf "serve: policy=%s nodes=%d ready\n%!"
      (Router.policy_name policy)
      (Net.n_nodes (Rr_serve.Core.network core));
    Rr_serve.Server.run srv;
    Printf.printf "serve: bye (%d connections held at shutdown)\n"
      (List.length (Rr_serve.Core.connections core))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the routing daemon: admit/release/fail/repair/query/snapshot \
          requests over a length-prefixed JSON protocol on loopback TCP, \
          with live state (network, incremental auxiliary cache, workspace \
          pool) resident across requests.")
    Term.(
      const run $ topo_arg $ file_arg $ policy_arg $ wavelengths_arg $ seed_arg
      $ port_arg $ http_arg $ queue_arg $ restore_arg)

let loadgen_cmd =
  let port_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~doc:"Control port of a running $(b,rr serve).")
  in
  let requests_arg =
    Arg.(
      value & opt int 200
      & info [ "requests"; "n" ]
          ~doc:"Admission requests to offer (0 with --shutdown just stops the server).")
  in
  let erlang_arg =
    Arg.(
      value & opt float 20.0
      & info [ "erlang" ] ~doc:"Offered load (arrival rate x mean holding time).")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write per-request admit latencies as CSV (request,outcome,latency_ns).")
  in
  let shutdown_arg =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Send a shutdown request after the run.")
  in
  let run port requests erlang seed csv shutdown =
    if requests < 0 then die "--requests must be non-negative";
    let stats =
      try Rr_serve.Loadgen.query ~port with
      | Unix.Unix_error (e, _, _) ->
        die "connect 127.0.0.1:%d: %s" port (Unix.error_message e)
      | Rr_serve.Loadgen.Protocol_failure m -> die "query: %s" m
    in
    let model = Rr_sim.Workload.make ~arrival_rate:erlang ~mean_holding:1.0 in
    let ops =
      Rr_serve.Loadgen.script ~seed ~n_nodes:stats.Rr_serve.Protocol.st_nodes
        ~requests model
    in
    match Rr_serve.Loadgen.run ~shutdown ~port ops with
    | r ->
      Printf.printf
        "loadgen: %d requests  admitted %d  blocked %d (%.1f%% blocking)  errors %d\n"
        r.Rr_serve.Loadgen.lg_requests r.Rr_serve.Loadgen.lg_admitted
        r.Rr_serve.Loadgen.lg_blocked
        (100.0 *. Rr_serve.Loadgen.blocking_rate r)
        r.Rr_serve.Loadgen.lg_errors;
      if r.Rr_serve.Loadgen.lg_requests > 0 then
        Printf.printf "loadgen: p50 %.3f ms  p99 %.3f ms  %.0f req/s\n"
          (float_of_int (Rr_serve.Loadgen.quantile_ns r 0.5) /. 1e6)
          (float_of_int (Rr_serve.Loadgen.quantile_ns r 0.99) /. 1e6)
          (Rr_serve.Loadgen.throughput_rps r);
      (match csv with
       | None -> ()
       | Some path -> write_sink path (Rr_serve.Loadgen.csv r))
    | exception Rr_serve.Loadgen.Protocol_failure m -> die "loadgen: %s" m
    | exception Unix.Unix_error (e, _, _) ->
      die "loadgen: socket error: %s" (Unix.error_message e)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Hammer a running $(b,rr serve) with the simulator's Poisson \
          traffic over a real socket and report admit-latency quantiles \
          and the blocking rate.")
    Term.(
      const run $ port_arg $ requests_arg $ erlang_arg $ seed_arg $ csv_arg
      $ shutdown_arg)

let admin_cmd =
  let port_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~doc:"Control port of a running $(b,rr serve).")
  in
  let fail_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fail" ] ~docv:"LINKS"
          ~doc:
            "Fail the comma-separated link ids atomically and run \
             restoration over the resident connections (switch to intact \
             backups, re-route the rest, drop what cannot re-route).")
  in
  let repair_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repair" ] ~docv:"LINKS"
          ~doc:"Repair the comma-separated link ids atomically.")
  in
  let query_arg =
    Arg.(value & flag & info [ "query" ] ~doc:"Print server stats (default when no burst is given).")
  in
  let run port fail_links repair_links query =
    let links_of flag s =
      let links =
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun x -> not (String.equal x ""))
        |> List.map (fun x ->
               match int_of_string_opt x with
               | Some e when e >= 0 -> e
               | _ -> die "--%s: bad link id %S" flag x)
      in
      if List.is_empty links then die "--%s expects at least one link id" flag;
      links
    in
    let send req =
      try Rr_serve.Loadgen.request ~port req with
      | Unix.Unix_error (e, _, _) ->
        die "connect 127.0.0.1:%d: %s" port (Unix.error_message e)
      | Rr_serve.Loadgen.Protocol_failure m -> die "admin: %s" m
    in
    let show_links links = String.concat "," (List.map string_of_int links) in
    let acted = ref false in
    (match fail_links with
     | None -> ()
     | Some s -> (
       acted := true;
       match send (Rr_serve.Protocol.Fail_burst { links = links_of "fail" s }) with
       | Rr_serve.Protocol.Burst_failed { links; switched; rerouted; dropped } ->
         Printf.printf "failed %s: switched %d  rerouted %d  dropped %d\n"
           (show_links links) switched rerouted dropped
       | Rr_serve.Protocol.Error { kind; msg } ->
         die "fail burst rejected (%s): %s"
           (Rr_serve.Protocol.error_kind_name kind) msg
       | _ -> die "unexpected reply to fail burst"));
    (match repair_links with
     | None -> ()
     | Some s -> (
       acted := true;
       match
         send (Rr_serve.Protocol.Repair_burst { links = links_of "repair" s })
       with
       | Rr_serve.Protocol.Burst_repaired { links } ->
         Printf.printf "repaired %s\n" (show_links links)
       | Rr_serve.Protocol.Error { kind; msg } ->
         die "repair burst rejected (%s): %s"
           (Rr_serve.Protocol.error_kind_name kind) msg
       | _ -> die "unexpected reply to repair burst"));
    if query || not !acted then begin
      match send Rr_serve.Protocol.Query with
      | Rr_serve.Protocol.Stats s ->
        Printf.printf
          "nodes %d  links %d  wavelengths %d\nconnections %d  in-use %d  \
           load %.3f\nadmitted %d  blocked %d\nfailed links: %s\n"
          s.Rr_serve.Protocol.st_nodes s.Rr_serve.Protocol.st_links
          s.Rr_serve.Protocol.st_wavelengths s.Rr_serve.Protocol.st_connections
          s.Rr_serve.Protocol.st_in_use s.Rr_serve.Protocol.st_load
          s.Rr_serve.Protocol.st_admitted_total
          s.Rr_serve.Protocol.st_blocked_total
          (match s.Rr_serve.Protocol.st_failed_links with
           | [] -> "none"
           | l -> show_links l)
      | Rr_serve.Protocol.Error { kind; msg } ->
        die "query rejected (%s): %s" (Rr_serve.Protocol.error_kind_name kind) msg
      | _ -> die "unexpected reply to query"
    end
  in
  Cmd.v
    (Cmd.info "admin"
       ~doc:
         "Administer a running $(b,rr serve): inject correlated failure \
          bursts ($(b,--fail 3,7)), repair them ($(b,--repair 3,7)) and \
          query live stats.  A burst is validated as a unit — any bad \
          link rejects the whole burst with no state change.")
    Term.(const run $ port_arg $ fail_arg $ repair_arg $ query_arg)

let obs_cmd =
  Cmd.group
    (Cmd.info "obs"
       ~doc:
         "Inspect observability artefacts: summarize a flight-recorder \
          journal, pretty-print one request's trace, diff metrics dumps.")
    [ obs_summary_cmd; obs_trace_cmd; obs_diff_cmd ]

let () =
  let info =
    Cmd.info "rr" ~version:"1.0.0"
      ~doc:"Robust routing in wide-area WDM networks (IPPS 2001 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            topo_cmd; route_cmd; simulate_cmd; audit_cmd; analyze_cmd;
            batch_cmd; provision_cmd; dot_cmd; check_cmd; obs_cmd;
            serve_cmd; loadgen_cmd; admin_cmd;
          ]))
