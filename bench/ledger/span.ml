type t = {
  names : string array;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  req : int array;
  mutable len : int;
  mutable dropped : int;
  mutable stack : int list;  (* open spans, innermost first; -1 = dropped *)
}

let create ~capacity names =
  let a () = Array.make (max 1 capacity) 0 in
  {
    names;
    name = a ();
    start = a ();
    stop = a ();
    parent = a ();
    req = a ();
    len = 0;
    dropped = 0;
    stack = [];
  }

let enter_at t i ~req ~ns =
  if t.len >= Array.length t.name then begin
    t.dropped <- t.dropped + 1;
    t.stack <- -1 :: t.stack
  end
  else begin
    let k = t.len in
    t.len <- k + 1;
    t.name.(k) <- i;
    t.start.(k) <- ns;
    t.stop.(k) <- ns;
    t.parent.(k) <- (match t.stack with p :: _ -> p | [] -> -1);
    t.req.(k) <- req;
    t.stack <- k :: t.stack
  end

let leave_at t ~ns =
  match t.stack with
  | [] -> invalid_arg "Span.leave: no open span"
  | k :: rest ->
    t.stack <- rest;
    if k >= 0 then t.stop.(k) <- ns

let enter t i ~req = enter_at t i ~req ~ns:(Rr_obs.Obs.now_ns ())
let leave t = leave_at t ~ns:(Rr_obs.Obs.now_ns ())
let length t = t.len
let dropped t = t.dropped
let name t k = t.name.(k)
let parent t k = t.parent.(k)
let duration_ns t k = t.stop.(k) - t.start.(k)

let self_ns t =
  let self = Array.init t.len (duration_ns t) in
  for k = 0 to t.len - 1 do
    let p = t.parent.(k) in
    if p >= 0 then self.(p) <- self.(p) - duration_ns t k
  done;
  self

let durations t i =
  let acc = ref [] in
  for k = t.len - 1 downto 0 do
    if t.name.(k) = i then acc := float_of_int (duration_ns t k) :: !acc
  done;
  Array.of_list !acc

let chrome_json t =
  let b = Buffer.create (128 * (t.len + 1)) in
  Buffer.add_string b "{\"traceEvents\":[";
  for k = 0 to t.len - 1 do
    if k > 0 then Buffer.add_char b ',';
    Printf.bprintf b
      "{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"req\":%d,\"parent\":%d}}"
      t.names.(t.name.(k))
      (float_of_int t.start.(k) /. 1e3)
      (float_of_int (duration_ns t k) /. 1e3)
      t.req.(k) t.parent.(k)
  done;
  Buffer.add_string b "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents b
