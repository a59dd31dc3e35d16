module Rng = Rr_util.Rng

type failure = {
  f_case : string;
  f_seed : int;
  f_trial : int;
  f_message : string;
  f_repro : string option;
}

type report = {
  case : string;
  trials : int;
  failure : failure option;
}

type kind =
  | Net of {
      gen : Rng.t -> max_n:int -> Instance.t;
      prop : Instance.t -> string option;
    }
  | Raw of (Rng.t -> string option)

(* [trial_cost] is the case's relative per-trial expense; the runner
   divides the requested trial count by it, so one heavyweight case
   (domain pools, multiple full batch runs per trial) doesn't blow the
   fixed @check wall-clock budget.  Replays always run the property
   exactly once regardless. *)
type case = { id : int; name : string; doc : string; trial_cost : int; kind : kind }

(* A property that *crashes* is as much a counterexample as one that
   returns a violation — shrink on it too. *)
let protect prop inst =
  try prop inst
  with e -> Some (Printf.sprintf "exception: %s" (Printexc.to_string e))

let cases =
  [
    {
      id = 1;
      name = "route";
      doc = "routed-pair invariant suite (validity, Eq.1/Eq.2 re-accounting)";
      trial_cost = 1;
      kind = Net { gen = (fun rng ~max_n -> Gen.instance rng ~max_n); prop = Invariants.check_routed_pair };
    };
    {
      id = 2;
      name = "thm2";
      doc = "Exact-enumeration oracle: Theorem 2 bound and feasibility";
      trial_cost = 1;
      kind = Net { gen = (fun rng ~max_n -> Gen.small_instance rng ~max_n); prop = Invariants.check_oracles };
    };
    {
      id = 3;
      name = "ilp";
      doc = "ILP second opinion vs the exact enumeration";
      trial_cost = 1;
      kind = Net { gen = (fun rng ~max_n:_ -> Gen.tiny_instance rng); prop = Invariants.check_ilp };
    };
    {
      id = 4;
      name = "scale";
      doc = "metamorphic: uniform weight scaling scales costs";
      trial_cost = 1;
      kind = Net { gen = (fun rng ~max_n -> Gen.instance rng ~max_n); prop = Invariants.check_weight_scale };
    };
    {
      id = 5;
      name = "permute";
      doc = "metamorphic: batch arrangement and permutation stability";
      trial_cost = 1;
      kind = Net { gen = (fun rng ~max_n -> Gen.instance rng ~max_n); prop = Invariants.check_permutation };
    };
    {
      id = 6;
      name = "obs";
      doc = "metamorphic: ?obs on/off and jobs 1/2/4 byte-identical";
      trial_cost = 1;
      kind = Net { gen = (fun rng ~max_n -> Gen.instance rng ~max_n); prop = Invariants.check_obs_jobs };
    };
    {
      id = 7;
      name = "io";
      doc = "Network_io print/parse round-trip on generated networks";
      trial_cost = 1;
      kind = Net { gen = (fun rng ~max_n -> Gen.instance rng ~max_n); prop = Invariants.check_io_roundtrip };
    };
    {
      id = 8;
      name = "bitset";
      doc = "Bitset vs naive set model";
      trial_cost = 1;
      kind = Raw Model_props.check_bitset;
    };
    {
      id = 9;
      name = "iheap";
      doc = "Workspace heap vs sorted reference (incl. decrease-key)";
      trial_cost = 1;
      kind = Raw Model_props.check_workspace_heap;
    };
    {
      id = 10;
      name = "pheap";
      doc = "Pairing_heap vs sorted reference (incl. decrease-key)";
      trial_cost = 1;
      kind = Raw Model_props.check_pairing_heap;
    };
    {
      id = 11;
      name = "ufind";
      doc = "Union_find vs naive partition model";
      trial_cost = 1;
      kind = Raw Model_props.check_union_find;
    };
    {
      id = 12;
      name = "auxcache";
      doc =
        "Incremental Aux_cache vs fresh G' under interleaved admit/release";
      trial_cost = 1;
      kind =
        Net
          {
            gen =
              (fun rng ~max_n ->
                Gen.instance
                  ~policies:
                    Robust_routing.Router.[ Cost_approx; Load_aware; Load_cost ]
                  rng ~max_n);
            prop = Invariants.check_aux_cache;
          };
    };
    {
      id = 13;
      name = "batchpar";
      doc =
        "Parallel batch engine byte-identical to jobs=1 across interleaved \
         batches";
      (* four full engine runs (jobs 1/2/4/8, eleven spawned domains) per
         trial *)
      trial_cost = 8;
      kind =
        Net
          {
            gen =
              (fun rng ~max_n ->
                Gen.instance
                  ~policies:
                    Robust_routing.Router.
                      [ Cost_approx; Load_aware; Load_cost; First_fit ]
                  rng ~max_n);
            prop = Invariants.check_batch_parallel;
          };
    };
    {
      id = 14;
      name = "serve";
      doc =
        "rr_serve pure handler vs direct library calls: responses, \
         snapshots, mid-script restore and bounded-queue ordering";
      (* ~20 admissions server-side plus the same again in the reference,
         and a snapshot re-print per step *)
      trial_cost = 2;
      kind =
        Net
          {
            gen =
              (fun rng ~max_n ->
                Gen.instance
                  ~policies:
                    Robust_routing.Router.[ Cost_approx; Load_aware; Load_cost ]
                  rng ~max_n);
            prop = Invariants.check_serve;
          };
    };
    {
      id = 15;
      name = "survive";
      doc =
        "restoration under failure bursts: Eq.1/Eq.2 invariants and \
         allocation books vs from-scratch re-allocation of the survivors";
      (* up to ten admissions, then eight burst/restore/re-allocate rounds
         (each with a full fresh-network books comparison) per trial *)
      trial_cost = 2;
      kind =
        Net
          {
            gen =
              (fun rng ~max_n ->
                Gen.instance
                  ~policies:
                    Robust_routing.Router.[ Cost_approx; Load_aware; Load_cost ]
                  rng ~max_n);
            prop = Invariants.check_survive;
          };
    };
  ]

let case_names = List.map (fun c -> c.name) cases

let is_case n = List.exists (fun c -> c.name = n) cases

let find_case n = List.find_opt (fun c -> c.name = n) cases

(* Per-trial RNG derivation: mix seed, case id and trial through splitmix
   creation so trials are independent and (case, seed, trial) is a complete
   replay coordinate. *)
let trial_rng ~seed ~case_id ~trial =
  Rng.create ((seed * 0x3779FB9) lxor (case_id * 7_919_003) lxor (trial * 104_729))

let run_case ~seed ~trials ~max_n c =
  let rec go t =
    if t >= trials then None
    else begin
      let rng = trial_rng ~seed ~case_id:c.id ~trial:t in
      let failure =
        match c.kind with
        | Raw f -> (
          match (try f rng with e -> Some (Printf.sprintf "exception: %s" (Printexc.to_string e))) with
          | None -> None
          | Some msg ->
            Some { f_case = c.name; f_seed = seed; f_trial = t; f_message = msg; f_repro = None })
        | Net { gen; prop } -> (
          let inst = gen rng ~max_n in
          match protect prop inst with
          | None -> None
          | Some _ ->
            let inst', msg = Shrink.minimize (protect prop) inst in
            Some
              {
                f_case = c.name;
                f_seed = seed;
                f_trial = t;
                f_message = msg;
                f_repro = Some (Instance.to_repro ~case:c.name inst');
              })
      in
      match failure with None -> go (t + 1) | Some _ -> failure
    end
  in
  go 0

let run ?(log = fun _ -> ()) ~seed ~trials ~max_n ~only () =
  let selected =
    match only with
    | [] -> cases
    | names ->
      List.map
        (fun n ->
          match find_case n with
          | Some c -> c
          | None -> invalid_arg (Printf.sprintf "unknown case %S" n))
        names
  in
  List.map
    (fun c ->
      let trials = max 1 (trials / c.trial_cost) in
      let failure = run_case ~seed ~trials ~max_n c in
      (match failure with
       | None -> log (Printf.sprintf "case %-8s %4d trials ok" c.name trials)
       | Some f ->
         log (Printf.sprintf "case %-8s FAILED at trial %d" c.name f.f_trial));
      { case = c.name; trials; failure })
    selected

let pp_failure fmt f =
  Format.fprintf fmt "rr-check: FAIL case=%s seed=%d trial=%d: %s@." f.f_case
    f.f_seed f.f_trial f.f_message;
  match f.f_repro with
  | None ->
    Format.fprintf fmt
      "rr-check: container case — replay with: rr check --only %s --seed %d --trials %d@."
      f.f_case f.f_seed (f.f_trial + 1)
  | Some repro ->
    Format.fprintf fmt "rr-check: shrunken repro (loadable .wdm, see EXPERIMENTS.md):@.%s" repro

(* ------------------------------------------------------------------ *)
(* Corpus replay                                                        *)

let replay ?case text =
  match Instance.of_repro text with
  | Error m -> Error m
  | Ok { r_case; r_instance; r_all_pairs } -> (
    let r_case = Option.value case ~default:r_case in
    match find_case r_case with
    | None -> Error (Printf.sprintf "unknown case %S in repro" r_case)
    | Some { kind = Raw _; _ } ->
      Error (Printf.sprintf "case %S takes no instance" r_case)
    | Some { kind = Net { prop; _ }; _ } ->
      if not r_all_pairs then (
        match protect prop r_instance with
        | None -> Ok ()
        | Some msg -> Error msg)
      else begin
        let n = r_instance.Instance.n_nodes in
        let err = ref None in
        for s = 0 to n - 1 do
          for d = 0 to n - 1 do
            if s <> d && !err = None then
              match
                protect prop { r_instance with Instance.source = s; target = d }
              with
              | None -> ()
              | Some msg -> err := Some (Printf.sprintf "request %d->%d: %s" s d msg)
          done
        done;
        match !err with None -> Ok () | Some m -> Error m
      end)
