(* The ledger's metric table: every metric a run can report, with its
   unit, direction and regression bound.  Metrics marked [listed] are the
   ones BENCHMARK.json lists — reported by every workload, end-to-end ones
   in untraced runs and layer ones in traced runs; the smoke test checks
   that file against this table. *)

type kind =
  | End_to_end
  | Layer of { layer : string; moves : string; where : string }

type metric = {
  name : string;
  unit : string;
  better : Verdict.better;
  bound : float;  (* share of the base median; ignored for Exact/Zero *)
  listed : bool;
  kind : kind;
}

let e2e ?(listed = false) name unit better bound =
  { name; unit; better; bound; listed; kind = End_to_end }

let layer ?(listed = true) ?(better = Verdict.Lower) name unit l ~moves ~where =
  { name; unit; better; bound = 0.0; listed; kind = Layer { layer = l; moves; where } }

let all_workloads = "all"

let end_to_end =
  Verdict.
    [
      e2e ~listed:true "setup_s" "s" Lower 0.25;
      e2e "admit_p50_us" "us" Lower 0.25;
      e2e "admit_p99_us" "us" Lower 0.25;
      e2e ~listed:true "admits_per_s" "1/s" Higher 0.24;
      e2e "batch_p50_ms" "ms" Lower 0.10;
      e2e "batch_p95_ms" "ms" Lower 0.10;
      e2e "blocking_ratio" "ratio" Exact 0.0;
      e2e "cost_per_admit" "cost" Exact 0.0;
      e2e "availability" "ratio" Exact 0.0;
      e2e "failed_ratio" "ratio" Zero 0.0;
      e2e ~listed:true "rss_mb" "MiB" Lower 0.10;
    ]

let serve_p99 = "admit_p99_us, admits_per_s on serve-steady"
let admit_p50 = "admit_p50_us on serve-steady and lib-wan400"
let kernels = "admit_p50_us, admit_p99_us on lib-wan400"

let per_layer =
  [
    layer "server.ping_rtt_p50_us" "us" "Server" ~moves:serve_p99 ~where:all_workloads;
    layer "server.pipelined_rtt_p99_us" "us" "Server" ~moves:serve_p99 ~where:all_workloads;
    layer ~listed:false "client.gen_lag_p99_us" "us" "client"
      ~moves:"validity of admit_p99_us on serve-steady" ~where:"serve-steady";
    layer "protocol.decode_ns" "ns" "Protocol" ~moves:"admit_p50_us on serve-steady"
      ~where:all_workloads;
    layer "protocol.encode_ns" "ns" "Protocol" ~moves:"admit_p50_us on serve-steady"
      ~where:all_workloads;
    layer "protocol.bytes_per_op" "bytes" "Protocol" ~moves:"admit_p50_us on serve-steady"
      ~where:all_workloads;
    layer "core.admit_us" "us" "Core" ~moves:"admit_p50_us on serve-steady" ~where:all_workloads;
    layer "core.release_us" "us" "Core" ~moves:"admit_p50_us on serve-steady" ~where:all_workloads;
    layer "core.unattributed_share" "ratio" "Core" ~moves:"admit_p50_us on serve-steady"
      ~where:all_workloads;
    layer "router.admit_us" "us" "Router" ~moves:admit_p50 ~where:all_workloads;
    layer "aux_cache.sync_us" "us" "Aux_cache"
      ~moves:(admit_p50 ^ "; admits_per_s on sim-failover") ~where:all_workloads;
    layer "aux_cache.sync_p99_us" "us" "Aux_cache" ~moves:admit_p50 ~where:all_workloads;
    layer "aux_cache.links_touched" "count" "Aux_cache" ~moves:admit_p50 ~where:all_workloads;
    layer "aux_cache.full_rebuild_ratio" "ratio" "Aux_cache" ~moves:admit_p50
      ~where:all_workloads;
    layer "auxiliary.pair_us" "us" "Auxiliary" ~moves:kernels ~where:all_workloads;
    layer "auxiliary.pair_p99_us" "us" "Auxiliary" ~moves:kernels ~where:all_workloads;
    layer "auxiliary.no_pair_ratio" "ratio" "Auxiliary" ~moves:kernels ~where:all_workloads;
    layer "layered.refine_us" "us" "Layered" ~moves:kernels ~where:all_workloads;
    layer "layered.refine_p99_us" "us" "Layered" ~moves:kernels ~where:all_workloads;
    layer "layered.nonsimple_ratio" "ratio" "Layered" ~moves:kernels ~where:all_workloads;
    layer "types.validate_us" "us" "Types" ~moves:admit_p50 ~where:all_workloads;
    layer "types.allocate_us" "us" "Types" ~moves:admit_p50 ~where:all_workloads;
    layer "types.release_us" "us" "Types" ~moves:admit_p50 ~where:all_workloads;
    layer "gc.minor_words_per_admit" "words" "GC"
      ~moves:"admit_p99_us, rss_mb on lib-wan400 and serve-steady" ~where:all_workloads;
    layer "gc.major_per_1k_admits" "count" "GC"
      ~moves:"admit_p99_us, rss_mb on lib-wan400 and serve-steady" ~where:all_workloads;
    layer "trace.overhead_ratio" "ratio" "trace" ~moves:"-" ~where:all_workloads;
    layer "trace.unattributed_share" "ratio" "trace" ~moves:"-" ~where:all_workloads;
    layer ~listed:false "batch.seq_ms" "ms" "Batch" ~moves:"batch_p50_ms on batch-wan100"
      ~where:"batch-wan100";
    layer ~listed:false ~better:Verdict.Higher "batch.parallel_speedup" "ratio" "Batch"
      ~moves:"batch_p50_ms on batch-wan100" ~where:"batch-wan100";
    layer ~listed:false "batch.fallback_ratio" "ratio" "Batch"
      ~moves:"batch_p50_ms on batch-wan100" ~where:"batch-wan100";
    layer ~listed:false "batch.components_per_batch" "count" "Batch"
      ~moves:"batch_p50_ms on batch-wan100" ~where:"batch-wan100";
    layer ~listed:false ~better:Verdict.Higher "parallel.effective_jobs" "count" "Parallel"
      ~moves:"batch_p50_ms on batch-wan100" ~where:"batch-wan100";
    layer ~listed:false "sim.us_per_arrival" "us" "Simulator"
      ~moves:"admits_per_s on sim-failover" ~where:"sim-failover";
    layer ~listed:false "sim.failure_events" "count" "Simulator"
      ~moves:"admits_per_s, availability on sim-failover" ~where:"sim-failover";
    layer ~listed:false "restore.attempts_per_1k" "count" "Restore"
      ~moves:"admits_per_s, availability on sim-failover" ~where:"sim-failover";
    layer ~listed:false "restore.switch_ratio" "ratio" "Restore"
      ~moves:"availability on sim-failover" ~where:"sim-failover";
    layer ~listed:false "restore.reroute_ratio" "ratio" "Restore"
      ~moves:"admits_per_s, availability on sim-failover" ~where:"sim-failover";
    layer ~listed:false "restore.drop_ratio" "ratio" "Restore"
      ~moves:"availability on sim-failover" ~where:"sim-failover";
    layer ~listed:false "partial.segmented_ratio" "ratio" "Partial_protect"
      ~moves:"admits_per_s, availability on sim-failover" ~where:"sim-failover";
    layer ~listed:false "sim.backup_hops_per_admit" "count" "Partial_protect"
      ~moves:"admits_per_s on sim-failover" ~where:"sim-failover";
  ]

let all = end_to_end @ per_layer
let find name = List.find_opt (fun m -> String.equal m.name name) all

let better_name = function
  | Verdict.Lower -> "lower"
  | Verdict.Higher -> "higher"
  | Verdict.Exact -> "equal"
  | Verdict.Zero -> "zero"
