let nominal_ns = 2_300_000.0

let sort_len = 16384
let chase_len = 32768
let chase_steps = 65536
let sort_buf = Array.make sort_len 0

let xorshift x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  x lxor (x lsl 17)

(* A single cycle through all slots (Sattolo), fixed by the seed. *)
let chase =
  let a = Array.init chase_len Fun.id in
  let x = ref 88172645463325252 in
  for i = chase_len - 1 downto 1 do
    x := xorshift !x;
    let j = (!x land max_int) mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let rec sift (a : int array) root last =
  let child = (2 * root) + 1 in
  if child <= last then begin
    let child = if child < last && a.(child) < a.(child + 1) then child + 1 else child in
    if a.(root) < a.(child) then begin
      let t = a.(root) in
      a.(root) <- a.(child);
      a.(child) <- t;
      sift a child last
    end
  end

let kernel_ns () =
  let t0 = Rr_obs.Obs.now_ns () in
  let x = ref 0x2545F4914F6CDD1D in
  for i = 0 to sort_len - 1 do
    x := xorshift !x;
    sort_buf.(i) <- !x land 0xFFFFFF
  done;
  for i = (sort_len / 2) - 1 downto 0 do
    sift sort_buf i (sort_len - 1)
  done;
  for last = sort_len - 1 downto 1 do
    let t = sort_buf.(0) in
    sort_buf.(0) <- sort_buf.(last);
    sort_buf.(last) <- t;
    sift sort_buf 0 (last - 1)
  done;
  let p = ref 0 and acc = ref 0 in
  for _ = 1 to chase_steps do
    p := chase.(!p);
    acc := !acc + !p
  done;
  ignore (Sys.opaque_identity !acc);
  Rr_obs.Obs.now_ns () - t0

let samples = ref []
let sample () = samples := float_of_int (kernel_ns ()) :: !samples

let bracket () =
  for _ = 1 to 10 do
    sample ()
  done

let reference_ns () =
  match !samples with [] -> nominal_ns | l -> Stats.median (Array.of_list l)

let factor () = nominal_ns /. reference_ns ()
