(* Lint fixture (R9): a connection owner returning wavelengths itself.
   test_lint stages this file as lib/sim/simulator.ml and lib/serve/core.ml,
   where every call below is flagged (the alias too), and as
   lib/core/connections.ml, the book, where none is. *)
module Semilightpath = struct
  let allocate _net _path = ()
  let release _net _path = ()
end

module Types = struct
  let allocate _net _sol = ()
  let release _net _sol = ()
end

module Slp = Semilightpath

let depart net path = Slp.release net path
let admit net sol = Types.allocate net sol
let evict net sol = Types.release net sol
let reinstate net path = Semilightpath.allocate net path
let length path = List.length path
