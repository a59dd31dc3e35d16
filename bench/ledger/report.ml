(* One workload run's result: metrics, operation counts and every failed
   check, printed as lines and written as JSON. *)

open Rr_ledger
module J = Rr_serve.Json

(* [raw] is the value as measured; [value] is scaled to reference speed
   (see {!Rr_ledger.Pace}) when the entry is a time or rate of busy work
   ([scaled]), [raw] otherwise. *)
type entry = {
  name : string;
  value : float;
  raw : float;
  scaled : bool;
  samples : int;
  q : float option;
}

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  mutable entries : entry list;  (* newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* newest first *)
}

let create ~workload ~seed ~seconds ~trace =
  { workload; seed; seconds; trace; entries = []; attempted = 0; failed = 0; problems = [] }

let problem t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      t.problems <- msg :: t.problems)
    fmt

let attempt t n = t.attempted <- t.attempted + n
let correct t = t.failed = 0

let add t ?(scaled = true) ?(samples = 0) ?q name value =
  (match Spec.find name with
   | None -> invalid_arg ("Report.add: metric not in the spec: " ^ name)
   | Some _ -> ());
  if Float.is_finite value then
    t.entries <- { name; value; raw = value; scaled; samples; q } :: t.entries
  else problem t "%s is not finite (%g)" name value

(* A latency percentile by the chooser — the highest rung up to
   [at_most] with 10 samples beyond it in every block — taken per block
   of the time-ordered samples, median over blocks.  With fewer samples
   than any rung needs (tiny smoke runs), the maximum, recorded as q = 1. *)
let percentile t ?scaled name ?(blocks = 1) ~at_most samples =
  let n = Array.length samples in
  if n = 0 then problem t "%s has no samples" name
  else begin
    let q = Option.value (Stats.choose ~at_most (n / max 1 (min blocks n))) ~default:1.0 in
    add t ?scaled ~samples:n ~q name
      (Stats.block_median ~blocks n (fun lo hi ->
           Stats.quantile (Stats.sorted (Array.sub samples lo (hi - lo))) q))
  end

let mean t name samples =
  add t ~samples:(Array.length samples) name
    (if Array.length samples = 0 then 0.0 else Stats.mean samples)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let unit_of name = match Spec.find name with Some m -> m.Spec.unit | None -> "?"

(* Times of busy work are multiplied by the reference factor, rates
   divided. *)
let scale t factor =
  let f e =
    match unit_of e.name with
    | ("s" | "ms" | "us" | "ns") when e.scaled -> { e with value = e.raw *. factor }
    | "1/s" when e.scaled -> { e with value = e.raw /. factor }
    | _ -> e
  in
  t.entries <- List.map f t.entries

let entries t = List.rev t.entries
let find t name = List.find_opt (fun e -> String.equal e.name name) t.entries

let print t =
  List.iter
    (fun e ->
      Printf.printf "  %-30s %16.6g %-6s%s%s\n" e.name e.value (unit_of e.name)
        (if e.raw <> e.value then Printf.sprintf "  (measured %.6g)" e.raw else "")
        (match e.q with
         | Some q -> Printf.sprintf "  (q %.3g of %d)" q e.samples
         | None when e.samples > 0 -> Printf.sprintf "  (%d samples)" e.samples
         | None -> ""))
    (entries t);
  Printf.printf "  reference kernel %.1f us (x%.4f to reference speed)\n"
    (Pace.reference_ns () /. 1e3) (Pace.factor ());
  Printf.printf "  attempted %d, failed %d%s\n" t.attempted t.failed
    (if correct t then ", all checks passed" else "");
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) (List.rev t.problems)

let to_json t =
  let metric e =
    let layer =
      match Spec.find e.name with
      | Some { Spec.kind = Spec.Layer { layer; moves; where }; _ } ->
        [ ("layer", J.String layer); ("moves", J.String moves); ("on", J.String where) ]
      | _ -> []
    in
    ( e.name,
      J.Obj
        ([ ("value", J.Float e.value); ("raw", J.Float e.raw);
           ("unit", J.String (unit_of e.name)); ("samples", J.Int e.samples) ]
        @ (match e.q with Some q -> [ ("q", J.Float q) ] | None -> [])
        @ layer) )
  in
  J.Obj
    [
      ("workload", J.String t.workload);
      ("seed", J.Int t.seed);
      ("seconds", J.Float t.seconds);
      ("trace", J.Bool t.trace);
      ("reference_us", J.Float (Pace.reference_ns () /. 1e3));
      ("correct", J.Bool (correct t));
      ("attempted", J.Int t.attempted);
      ("failed", J.Int t.failed);
      ("metrics", J.Obj (List.map metric (entries t)));
      ("problems", J.List (List.rev_map (fun p -> J.String p) t.problems));
    ]

(* The line an external harness reads: exactly the BENCHMARK.json metrics
   of this kind of run, value and unit only. *)
let result_line t =
  let wanted m =
    m.Spec.listed
    && (match m.Spec.kind with Spec.End_to_end -> not t.trace | Spec.Layer _ -> t.trace)
  in
  let metrics =
    List.filter_map
      (fun m ->
        if not (wanted m) then None
        else
          Option.map
            (fun e -> (e.name, J.Obj [ ("value", J.Float e.value); ("unit", J.String m.Spec.unit) ]))
            (find t m.Spec.name))
      Spec.all
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (correct t));
         ("attempted", J.Int (max 1 t.attempted));
         ("failed", J.Int t.failed);
         ("metrics", J.Obj metrics);
       ])

(* Every listed metric of this kind of run must be present. *)
let check_listed_metrics t =
  List.iter
    (fun m ->
      let kind_matches =
        match m.Spec.kind with Spec.End_to_end -> not t.trace | Spec.Layer _ -> t.trace
      in
      if m.Spec.listed && kind_matches && find t m.Spec.name = None then
        problem t "metric %s was not measured" m.Spec.name)
    Spec.all
