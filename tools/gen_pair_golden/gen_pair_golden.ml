(* Regenerates test/corpus/suurballe_pairs.golden, the byte-identity
   record of the disjoint-pair kernel (see Rr_check.Pair_golden).  Run it
   only when a change to the kernel is meant to change its routings.

   Usage: dune exec tools/gen_pair_golden/gen_pair_golden.exe [DIR]
   (default test/corpus). *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/corpus" in
  let file = Filename.concat dir "suurballe_pairs.golden" in
  let text = Rr_check.Pair_golden.render Rr_check.Pair_golden.Fresh_workspaces in
  Out_channel.with_open_bin file (fun oc -> output_string oc text);
  Printf.printf "wrote %s (%d lines)\n" file
    (List.length (String.split_on_char '\n' text) - 1)
