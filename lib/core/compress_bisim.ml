let compress_of_partition g assignment =
  if Array.length assignment <> Digraph.n g then
    invalid_arg "Compress_bisim: assignment length mismatch";
  let assignment = Partition.normalize_assignment assignment in
  let count = Array.fold_left (fun acc b -> Mono.imax acc (b + 1)) 0 assignment in
  let graph = Quotient.build ~labelled:true ~self_loops:true g ~count assignment in
  Compressed.v ~graph ~node_map:assignment

let compress ?pool g =
  Obs.span "compressB" (fun () ->
      let part =
        Obs.span "compressB.partition" (fun () ->
            Bisimulation.max_bisimulation ?pool g)
      in
      Obs.span "compressB.quotient" (fun () -> compress_of_partition g part))

let answer ?cache p c =
  Compressed.expand_result c
    (Bounded_sim.eval ?cache p (Compressed.graph c))

let answer_boolean ?cache p c =
  Bounded_sim.eval_boolean ?cache p (Compressed.graph c)

let answer_regular p c =
  Compressed.expand_result c
    (Regular_pattern.eval p (Compressed.graph c))

let answer_rpq r c =
  let on_gr = Rpq.matches r (Compressed.graph c) in
  let out = ref [] in
  Bitset.iter
    (fun h -> Array.iter (fun v -> out := v :: !out) (Compressed.members c h))
    on_gr;
  let a = Array.of_list !out in
  Array.sort Mono.icompare a;
  a
