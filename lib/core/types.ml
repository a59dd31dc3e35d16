module Slp = Rr_wdm.Semilightpath

type request = { src : int; dst : int }

type solution = {
  primary : Slp.t;
  backup : Slp.t option;
}

type blocked = No_disjoint_pair | No_wavelength | No_route | Validator of string

let blocked_row = function
  | No_disjoint_pair -> (1, "no_disjoint_pair", "route.block.no_disjoint_pair")
  | No_wavelength -> (2, "no_wavelength", "route.block.no_wavelength")
  | No_route -> (3, "no_route", "route.block.no_route")
  | Validator _ -> (4, "validator_reject", "admit.reject.validator")

let blocked_code b =
  let code, _, _ = blocked_row b in
  code

let blocked_name b =
  let _, name, _ = blocked_row b in
  name

let blocked_counter b =
  let _, _, counter = blocked_row b in
  counter

let blocked_of_code code =
  List.find_opt
    (fun b -> blocked_code b = code)
    [ No_disjoint_pair; No_wavelength; No_route; Validator "" ]

let primary_cost net s = Slp.cost net s.primary

let backup_cost net s =
  match s.backup with None -> 0.0 | Some b -> Slp.cost net b

let total_cost net s = primary_cost net s +. backup_cost net s

let validate ?require_available net req s =
  let ( let* ) r f = Result.bind r f in
  let* () =
    Result.map_error
      (fun e -> "primary: " ^ e)
      (Slp.validate ?require_available net ~source:req.src ~target:req.dst s.primary)
  in
  match s.backup with
  | None -> Ok ()
  | Some b ->
    let* () =
      Result.map_error
        (fun e -> "backup: " ^ e)
        (Slp.validate ?require_available net ~source:req.src ~target:req.dst b)
    in
    if Slp.edge_disjoint s.primary b then Ok ()
    else Error "primary and backup share a physical link"

let allocate net s =
  Slp.allocate net s.primary;
  match s.backup with
  | None -> ()
  | Some b -> (
    try Slp.allocate net b
    with e ->
      (* keep all-or-nothing semantics *)
      Slp.release net s.primary;
      raise e)

let release net s =
  Slp.release net s.primary;
  match s.backup with None -> () | Some b -> Slp.release net b

let pp net fmt s =
  Format.fprintf fmt "@[<v>primary: %a (cost %.3f)" (Slp.pp net) s.primary
    (primary_cost net s);
  (match s.backup with
   | None -> Format.fprintf fmt "@,backup: none"
   | Some b -> Format.fprintf fmt "@,backup:  %a (cost %.3f)" (Slp.pp net) b (Slp.cost net b));
  Format.fprintf fmt "@]"
