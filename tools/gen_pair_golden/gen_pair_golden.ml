(* Regenerates the byte-identity records of the routing kernels:
   test/corpus/suurballe_pairs.golden (the disjoint-pair kernel, see
   Rr_check.Pair_golden) and test/corpus/layered_paths.golden (the
   layered semilightpath kernel, see Rr_check.Layered_golden).  Run it
   only when a change to a kernel is meant to change its routings.

   Usage: dune exec tools/gen_pair_golden/gen_pair_golden.exe [DIR]
   (default test/corpus). *)

let write dir name text =
  let file = Filename.concat dir name in
  Out_channel.with_open_bin file (fun oc -> output_string oc text);
  Printf.printf "wrote %s (%d lines)\n" file
    (List.length (String.split_on_char '\n' text) - 1)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/corpus" in
  write dir "suurballe_pairs.golden"
    (Rr_check.Pair_golden.render Rr_check.Pair_golden.Fresh_workspaces);
  write dir "layered_paths.golden"
    (Rr_check.Layered_golden.render Rr_check.Layered_golden.Fresh_workspaces)
