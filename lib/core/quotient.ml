(* Members are grouped by block with a counting sort and walked block by
   block.  [last_seen.(t) = b] records that block [t] is already a target
   of the current block [b], so each quotient edge is emitted exactly once
   with no hash table and no boxed pair; the int columns come out grouped
   by source, and the counting sorts of Digraph.of_edge_arrays put them in
   CSR order. *)
let build ~labelled ~self_loops g ~count class_of =
  let n = Digraph.n g in
  if Array.length class_of <> n then
    invalid_arg "Quotient.build: class array length mismatch";
  let first = Array.make (count + 1) 0 in
  Array.iter
    (fun b ->
      if b < 0 || b >= count then invalid_arg "Quotient.build: class out of range";
      first.(b + 1) <- first.(b + 1) + 1)
    class_of;
  for b = 0 to count - 1 do
    first.(b + 1) <- first.(b + 1) + first.(b)
  done;
  let members = Array.make n 0 in
  let cursor = Array.sub first 0 count in
  for v = 0 to n - 1 do
    let b = class_of.(v) in
    members.(cursor.(b)) <- v;
    cursor.(b) <- cursor.(b) + 1
  done;
  (* One pass over every edge through raw offsets: the member scan below
     is the quotient's hot loop. *)
  let off, adj = Digraph.out_csr g (* lint: allow CSR02 *) in
  let node_labels = if labelled then Digraph.labels g else [||] in
  let labels = Array.make count 0 in
  let last_seen = Array.make count (-1) in
  let src = Array.make (Array.length adj) 0 in
  let dst = Array.make (Array.length adj) 0 in
  let len = ref 0 in
  (for b = 0 to count - 1 do
     let lo = first.(b) and hi = first.(b + 1) in
     if labelled && lo < hi then labels.(b) <- node_labels.(members.(lo));
     for i = lo to hi - 1 do
       let u = members.(i) in
       if labelled && node_labels.(u) <> labels.(b) then
         invalid_arg
           (Printf.sprintf
              "Quotient.build: block %d mixes labels %d (node %d) and %d \
               (node %d)"
              b labels.(b) members.(lo) node_labels.(u) u);
       for e = off.(u) to off.(u + 1) - 1 do
         let t = class_of.(adj.(e)) in
         if last_seen.(t) <> b && (self_loops || t <> b) then begin
           last_seen.(t) <- b;
           src.(!len) <- b;
           dst.(!len) <- t;
           incr len
         end
       done
     done
   done) [@lint.hot_loop];
  Digraph.of_edge_arrays ~n:count ~labels (Array.sub src 0 !len)
    (Array.sub dst 0 !len)
