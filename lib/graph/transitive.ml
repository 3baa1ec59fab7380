(* Descendant sets at SCC granularity.  Ascending SCC id is reverse
   topological order (see Scc), so one sequential pass suffices; the parallel
   path schedules by topological level instead — every SCC's successors sit
   at strictly smaller levels, so all SCCs of one level propagate
   independently.  Either way each set's content is a pure function of the
   graph, so the two schedules agree bit for bit. *)

let get_pool = function Some p -> p | None -> Pool.default ()

(* [close off adj scc sets keep c] fills [sets.(c)] — the SCCs reachable
   from SCC [c] by a nonempty path — from the finished sets of its
   successor SCCs.  Those are unioned in first, so that in between
   [sets.(c)] is exactly the union of the strict descendant sets of c's
   successors: on a DAG (one node per SCC) an out-edge of c's node is
   redundant iff its head is in that union, and a non-empty [keep] (indexed
   by out-CSR edge position) records the verdict for each of them.  The
   sets are transitively closed, so a successor already in the set was
   absorbed by an earlier union and needs no O(k/63) sweep of its own. *)
let[@lint.hot_loop] close off adj (scc : Scc.t) sets keep c =
  let s = sets.(c) and comp = scc.Scc.comp and ms = scc.Scc.members.(c) in
  for i = 0 to Array.length ms - 1 do
    let v = ms.(i) in
    for e = off.(v) to off.(v + 1) - 1 do
      let c' = comp.(adj.(e)) in
      if c' <> c && not (Bitset.mem s c') then
        ignore (Bitset.union_into ~into:s sets.(c'))
    done
  done;
  if Array.length keep > 0 then begin
    let v = ms.(0) in
    for e = off.(v) to off.(v + 1) - 1 do
      keep.(e) <- not (Bitset.mem s comp.(adj.(e)))
    done
  end;
  for i = 0 to Array.length ms - 1 do
    let v = ms.(i) in
    for e = off.(v) to off.(v + 1) - 1 do
      let c' = comp.(adj.(e)) in
      if c' <> c then Bitset.add s c'
    done
  done;
  if scc.Scc.nontrivial.(c) then Bitset.add s c

(* [scc_descendant_sets ~pool ~keep g scc] is the descendant set of every
   SCC, over the SCC-id universe; [keep] is [[||]] or, for a DAG, the
   per-edge reduction verdicts that {!close} writes. *)
let scc_descendant_sets ~pool ~keep g scc =
  let off, adj = Digraph.out_csr g in
  let comp = scc.Scc.comp in
  let k = scc.Scc.count in
  let sets = Array.init k (fun _ -> Bitset.create k) in
  if Pool.domains pool = 1 then
    for c = 0 to k - 1 do
      close off adj scc sets keep c
    done
  else begin
    let buckets =
      Obs.span "transitive.topo_rank" (fun () ->
          let level = Array.make k 0 in
          let max_level = ref 0 in
          for c = 0 to k - 1 do
            let l = ref 0 in
            Array.iter
              (fun v ->
                for e = off.(v) to off.(v + 1) - 1 do
                  let c' = comp.(adj.(e)) in
                  if c' <> c && level.(c') >= !l then l := level.(c') + 1
                done)
              scc.Scc.members.(c);
            level.(c) <- !l;
            if !l > !max_level then max_level := !l
          done;
          let counts = Array.make (!max_level + 1) 0 in
          Array.iter (fun l -> counts.(l) <- counts.(l) + 1) level;
          let buckets = Array.map (fun cnt -> Array.make cnt 0) counts in
          let fill_pos = Array.make (!max_level + 1) 0 in
          for c = 0 to k - 1 do
            let l = level.(c) in
            buckets.(l).(fill_pos.(l)) <- c;
            fill_pos.(l) <- fill_pos.(l) + 1
          done;
          buckets)
    in
    Array.iter
      (fun bucket ->
        Pool.parallel_for pool ~n:(Array.length bucket) (fun i ->
            close off adj scc sets keep bucket.(i)))
      buckets
  end;
  sets

let descendant_sets ?pool g =
  let pool = get_pool pool in
  let scc = Scc.compute g in
  let scc_sets = scc_descendant_sets ~pool ~keep:[||] g scc in
  let n = Digraph.n g in
  let res = Array.make n (Bitset.create 0) in
  Pool.parallel_for pool ~n (fun v ->
      let s = Bitset.create n in
      Bitset.iter
        (fun c -> Array.iter (Bitset.add s) scc.Scc.members.(c))
        scc_sets.(scc.Scc.comp.(v));
      res.(v) <- s);
  res

let ancestor_sets ?pool g = descendant_sets ?pool (Digraph.reverse g)

(* One SCC pass serves as the cycle check and as the schedule; the
   redundancy verdicts fall out of the descendant-set pass itself, at
   O(|E|·|V|/63) words with no per-source scratch set.  Kept edges are a
   subsequence of each sorted out-slice, so the reduced CSR is canonical
   as it stands. *)
let reduction_dag ?pool dag =
  let pool = get_pool pool in
  let n = Digraph.n dag in
  let scc = Scc.compute dag in
  if scc.Scc.count <> n || Array.exists (fun b -> b) scc.Scc.nontrivial
  then invalid_arg "Transitive.reduction_dag: graph has a cycle";
  let off, adj = Digraph.out_csr dag in
  let keep = Array.make (Array.length adj) false in
  ignore (scc_descendant_sets ~pool ~keep dag scc);
  let out_off = Array.make (n + 1) 0 and out_adj = Array.copy adj in
  let j = ref 0 in
  for u = 0 to n - 1 do
    for e = off.(u) to off.(u + 1) - 1 do
      if keep.(e) then begin
        out_adj.(!j) <- adj.(e);
        incr j
      end
    done;
    out_off.(u + 1) <- !j
  done;
  Digraph.of_csr_unchecked ~n ~labels:(Array.copy (Digraph.labels dag))
    ~out_off ~out_adj:(Array.sub out_adj 0 !j)

let aho_reduction ?pool g =
  let scc = Scc.compute g in
  let cond = Scc.condensation g scc in
  let cond_reduced = reduction_dag ?pool cond in
  let edges = ref [] in
  (* Simple cycle through each nontrivial SCC. *)
  for c = 0 to scc.Scc.count - 1 do
    let ms = scc.Scc.members.(c) in
    let len = Array.length ms in
    if scc.Scc.nontrivial.(c) then
      if len = 1 then edges := (ms.(0), ms.(0)) :: !edges
      else
        for i = 0 to len - 1 do
          edges := (ms.(i), ms.((i + 1) mod len)) :: !edges
        done
  done;
  (* One representative edge per reduced condensation edge. *)
  Digraph.iter_edges cond_reduced (fun a b ->
      edges := (scc.Scc.members.(a).(0), scc.Scc.members.(b).(0)) :: !edges);
  Digraph.make ~n:(Digraph.n g) ~labels:(Digraph.labels g) !edges

let closure_matrix ?pool g =
  let desc = descendant_sets ?pool g in
  fun u v -> Bitset.mem desc.(u) v
