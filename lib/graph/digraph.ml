(* Backend-polymorphic compressed-sparse-row storage.

   Logically every graph is the same structure: per-node successor slices,
   strictly sorted and deduplicated, plus the mirrored in-adjacency.  The
   physical representation is one of two per direction:

   - [Sflat]    heap int arrays (the original CSR): one flat adjacency
                array indexed by an [n+1]-entry offset array;
   - [Smapped]  the same two arrays as [Bigarray] views over an mmap'd
                'M' snapshot — zero-copy, O(1) load, page-cache resident.

   All consumers go through the accessors below; the raw-array surface
   ([out_csr]/[in_csr], [succ_slice]) is preserved by materialising a
   cached "dense view" on the mapped backend, or by copying into a
   per-domain scratch buffer for slices.  [reverse] stays O(1): the two
   direction records swap roles. *)

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type backend = Flat | Mapped

type store =
  | Sflat of { off : int array; adj : int array }
  | Smapped of { off : int_ba; adj : int_ba }

(* One direction of adjacency.  [dense] caches the materialised flat view
   for mapped stores (for [Sflat] it aliases the store itself and costs
   nothing); it is an [Atomic] because pool workers may force it
   concurrently — both compute identical immutable arrays, so whichever
   publication wins is correct.  [scratch] is the per-domain slice-copy
   buffer, present iff the store is mapped; keying by [Domain.DLS] keeps
   concurrent slice copies from different pool workers from trampling
   each other. *)
type side = {
  store : store;
  dense : (int array * int array) option Atomic.t;
  scratch : int array ref Domain.DLS.key option;
}

type labels_store = Lheap of int array | Lmapped of int_ba
type lab = { ls : labels_store; dense_labels : int array option Atomic.t }

type t = {
  n : int;
  m : int;
  label_count : int;
  lab : lab;
  fwd : side; (* out-adjacency *)
  bwd : side; (* in-adjacency *)
}

let compute_label_count labels =
  Array.fold_left (fun acc l -> if l >= acc then l + 1 else acc) 1 labels

let check_labels n = function
  | None -> Array.make n 0
  | Some l ->
      if Array.length l <> n then
        invalid_arg "Digraph.make: label array length mismatch";
      Array.iter
        (fun x -> if x < 0 then invalid_arg "Digraph.make: negative label")
        l;
      Array.copy l

let flat_side off adj =
  {
    store = Sflat { off; adj };
    dense = Atomic.make (Some (off, adj));
    scratch = None;
  }

let scratch_key () = Some (Domain.DLS.new_key (fun () -> ref [||]))

let mk_flat ~n ~labels ~out_off ~out_adj ~in_off ~in_adj =
  {
    n;
    m = Array.length out_adj;
    label_count = compute_label_count labels;
    lab = { ls = Lheap labels; dense_labels = Atomic.make (Some labels) };
    fwd = flat_side out_off out_adj;
    bwd = flat_side in_off in_adj;
  }

(* CSR construction by two stable counting sorts: sorting the edge array by
   destination and then (stably) by source leaves it in (src, dst)
   lexicographic order in O(n + m) with no comparison sort; duplicates are
   then adjacent and collapse in one compaction pass. *)
let csr_of_edges ~n (src : int array) (dst : int array) =
  let m0 = Array.length src in
  (* Pass 1: stable counting sort by dst. *)
  let cnt = Array.make (n + 1) 0 in
  for i = 0 to m0 - 1 do
    cnt.(dst.(i)) <- cnt.(dst.(i)) + 1
  done;
  let pos = ref 0 in
  for v = 0 to n - 1 do
    let c = cnt.(v) in
    cnt.(v) <- !pos;
    pos := !pos + c
  done;
  let s1 = Array.make m0 0 and d1 = Array.make m0 0 in
  for i = 0 to m0 - 1 do
    let p = cnt.(dst.(i)) in
    cnt.(dst.(i)) <- p + 1;
    s1.(p) <- src.(i);
    d1.(p) <- dst.(i)
  done;
  (* Pass 2: stable counting sort by src; result is (src, dst)-sorted. *)
  let off = Array.make (n + 1) 0 in
  for i = 0 to m0 - 1 do
    off.(s1.(i) + 1) <- off.(s1.(i) + 1) + 1
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  (* The source column after this pass would be [u] repeated across each
     [off]-range, so only the destination column is materialised. *)
  let cursor = Array.sub off 0 n in
  let d2 = Array.make m0 0 in
  for i = 0 to m0 - 1 do
    let u = s1.(i) in
    let p = cursor.(u) in
    cursor.(u) <- p + 1;
    d2.(p) <- d1.(i)
  done;
  (* Compact adjacent duplicates, rebuilding the offsets. *)
  let out_off = Array.make (n + 1) 0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    out_off.(u) <- !k;
    let lo = off.(u) and hi = off.(u + 1) in
    for i = lo to hi - 1 do
      if i = lo || d2.(i) <> d2.(i - 1) then begin
        d2.(!k) <- d2.(i);
        incr k
      end
    done
  done;
  out_off.(n) <- !k;
  let out_adj = if !k = m0 then d2 else Array.sub d2 0 !k in
  (out_off, out_adj)

(* Mirror a CSR: counting sort of the (u, v) pairs by v.  Scanning u in
   ascending order keeps each in-slice sorted. *)
let mirror_csr ~n (out_off : int array) (out_adj : int array) =
  let m = Array.length out_adj in
  let in_off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    in_off.(out_adj.(i) + 1) <- in_off.(out_adj.(i) + 1) + 1
  done;
  for v = 0 to n - 1 do
    in_off.(v + 1) <- in_off.(v + 1) + in_off.(v)
  done;
  let cursor = Array.sub in_off 0 n in
  let in_adj = Array.make m 0 in
  for u = 0 to n - 1 do
    for i = out_off.(u) to out_off.(u + 1) - 1 do
      let v = out_adj.(i) in
      let p = cursor.(v) in
      cursor.(v) <- p + 1;
      in_adj.(p) <- u
    done
  done;
  (in_off, in_adj)

let of_columns ~n ~labels src dst =
  let out_off, out_adj = csr_of_edges ~n src dst in
  let in_off, in_adj = mirror_csr ~n out_off out_adj in
  mk_flat ~n ~labels ~out_off ~out_adj ~in_off ~in_adj

let check_edge n u v =
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg
      (Printf.sprintf "Digraph.make: edge (%d,%d) out of range [0,%d)" u v n)

let of_edge_arrays ~n ?labels src dst =
  if n < 0 then invalid_arg "Digraph.make: negative node count";
  if Array.length src <> Array.length dst then
    invalid_arg "Digraph.of_edge_arrays: column length mismatch";
  let labels = check_labels n labels in
  Array.iteri (fun i u -> check_edge n u dst.(i)) src;
  of_columns ~n ~labels src dst

let make_arrays ~n ?labels edges =
  of_edge_arrays ~n ?labels (Array.map fst edges) (Array.map snd edges)

let make ~n ?labels edges = make_arrays ~n ?labels (Array.of_list edges)
let empty = make ~n:0 []

(* Trusted constructor for I/O paths that already hold a canonical CSR
   (strictly sorted, deduplicated slices): skips the counting sorts and
   only rebuilds the mirror.  Caller-checked; [validate] re-verifies. *)
let of_csr_unchecked ~n ~labels ~out_off ~out_adj =
  let in_off, in_adj = mirror_csr ~n out_off out_adj in
  mk_flat ~n ~labels ~out_off ~out_adj ~in_off ~in_adj

(* Trusted constructor for the 'M' snapshot loader: both mirrors are
   already materialised in the mapped file, so building the value is O(1)
   regardless of graph size. *)
let of_mapped_unchecked ~n ~m ~label_count ~labels ~out_off ~out_adj ~in_off
    ~in_adj =
  {
    n;
    m;
    label_count;
    lab = { ls = Lmapped labels; dense_labels = Atomic.make None };
    fwd = { store = Smapped { off = out_off; adj = out_adj }; dense = Atomic.make None;
            scratch = scratch_key () };
    bwd = { store = Smapped { off = in_off; adj = in_adj }; dense = Atomic.make None;
            scratch = scratch_key () };
  }

module Builder = struct
  type t = {
    mutable labels : int array;
    mutable count : int;
    mutable src : int array;
    mutable dst : int array;
    mutable edge_count : int;
  }

  let create ?(expected_nodes = 16) () =
    {
      labels = Array.make (Mono.imax 1 expected_nodes) 0;
      count = 0;
      src = Array.make 16 0;
      dst = Array.make 16 0;
      edge_count = 0;
    }

  let add_node b ~label =
    if label < 0 then invalid_arg "Builder.add_node: negative label";
    if b.count = Array.length b.labels then begin
      let bigger = Array.make (2 * b.count) 0 in
      Array.blit b.labels 0 bigger 0 b.count;
      b.labels <- bigger
    end;
    b.labels.(b.count) <- label;
    b.count <- b.count + 1;
    b.count - 1

  let add_edge b u v =
    if u < 0 || u >= b.count || v < 0 || v >= b.count then
      invalid_arg "Builder.add_edge: unknown endpoint";
    if b.edge_count = Array.length b.src then begin
      let cap = 2 * b.edge_count in
      let s = Array.make cap 0 and d = Array.make cap 0 in
      Array.blit b.src 0 s 0 b.edge_count;
      Array.blit b.dst 0 d 0 b.edge_count;
      b.src <- s;
      b.dst <- d
    end;
    b.src.(b.edge_count) <- u;
    b.dst.(b.edge_count) <- v;
    b.edge_count <- b.edge_count + 1

  let node_count b = b.count

  let build b =
    let labels = Array.sub b.labels 0 b.count in
    of_columns ~n:b.count ~labels
      (Array.sub b.src 0 b.edge_count)
      (Array.sub b.dst 0 b.edge_count)
end

let n g = g.n
let m g = g.m
let size g = g.n + g.m

let backend g =
  match g.fwd.store with
  | Sflat _ -> Flat
  | Smapped _ -> Mapped

let backend_name g = match backend g with Flat -> "flat" | Mapped -> "mmap"

(* ------------------------------------------------------------------ *)
(* Per-direction dispatch *)

let side_degree sd v =
  match sd.store with
  | Sflat { off; _ } -> off.(v + 1) - off.(v)
  | Smapped { off; _ } -> off.{v + 1} - off.{v}

let side_iter sd v f =
  match sd.store with
  | Sflat { off; adj } ->
      for i = off.(v) to off.(v + 1) - 1 do
        f adj.(i)
      done
  | Smapped { off; adj } ->
      for i = off.{v} to off.{v + 1} - 1 do
        f adj.{i}
      done

(* Grow-on-demand per-domain slice buffer.  Only mapped sides carry a
   key, so flat graphs never touch DLS. *)
let scratch_for sd deg =
  match sd.scratch with
  | None -> [||] (* unreachable: flat slices are never copied *)
  | Some key ->
      let cell = Domain.DLS.get key in
      if Array.length !cell < deg then begin
        let len = ref (Mono.imax 8 (Array.length !cell)) in
        while !len < deg do
          len := 2 * !len
        done;
        cell := Array.make !len 0
      end;
      !cell

let side_slice sd v =
  match sd.store with
  | Sflat { off; adj } -> (adj, off.(v), off.(v + 1) - off.(v))
  | Smapped { off; adj } ->
      let lo = off.{v} in
      let deg = off.{v + 1} - lo in
      let buf = scratch_for sd deg in
      for i = 0 to deg - 1 do
        buf.(i) <- adj.{lo + i}
      done;
      (buf, 0, deg)

(* Binary search for [x] in the slice [a.(lo) .. a.(hi-1)]. *)
let mem_slice (a : int array) lo hi (x : int) =
  let limit = hi in
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo < limit && a.(!lo) = x

let ba_mem_slice (a : int_ba) lo hi (x : int) =
  let limit = hi in
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.{mid} < x then lo := mid + 1 else hi := mid
  done;
  !lo < limit && a.{!lo} = x

let side_mem sd v x =
  match sd.store with
  | Sflat { off; adj } -> mem_slice adj off.(v) off.(v + 1) x
  | Smapped { off; adj } -> ba_mem_slice adj off.{v} off.{v + 1} x

(* Materialise (and cache) the flat view of a mapped side.  Concurrent
   forcing from two domains duplicates work but stays correct: both
   compute identical immutable arrays and one atomic publication wins. *)
let force_dense n sd =
  match Atomic.get sd.dense with
  | Some d -> d
  | None ->
      let off = Array.make (n + 1) 0 in
      for v = 0 to n - 1 do
        off.(v + 1) <- off.(v) + side_degree sd v
      done;
      let adj = Array.make off.(n) 0 in
      let k = ref 0 in
      for v = 0 to n - 1 do
        side_iter sd v (fun w ->
            adj.(!k) <- w;
            incr k)
      done;
      let d = (off, adj) in
      Atomic.set sd.dense (Some d);
      d

(* ------------------------------------------------------------------ *)
(* Accessors *)

let label g v =
  match g.lab.ls with
  | Lheap a -> a.(v)
  | Lmapped ba -> ba.{v}

let labels g =
  match Atomic.get g.lab.dense_labels with
  | Some a -> a
  | None ->
      let a =
        match g.lab.ls with
        | Lheap a -> a
        | Lmapped ba -> Array.init g.n (fun v -> ba.{v})
      in
      Atomic.set g.lab.dense_labels (Some a);
      a

let label_count g = g.label_count
let out_degree g v = side_degree g.fwd v
let in_degree g v = side_degree g.bwd v
let succ_slice g v = side_slice g.fwd v
let pred_slice g v = side_slice g.bwd v
let out_csr g = force_dense g.n g.fwd
let in_csr g = force_dense g.n g.bwd
let mem_edge g u v = side_mem g.fwd u v
let iter_succ g v f = side_iter g.fwd v f
let iter_pred g v f = side_iter g.bwd v f

let fold_succ g v f init =
  let acc = ref init in
  side_iter g.fwd v (fun w -> acc := f !acc w);
  !acc

let fold_pred g v f init =
  let acc = ref init in
  side_iter g.bwd v (fun w -> acc := f !acc w);
  !acc

let iter_edges g f =
  match g.fwd.store with
  | Sflat { off; adj } ->
      (* Fast path: no per-node closure. *)
      for u = 0 to g.n - 1 do
        for i = off.(u) to off.(u + 1) - 1 do
          f u adj.(i)
        done
      done
  | _ ->
      for u = 0 to g.n - 1 do
        side_iter g.fwd u (fun v -> f u v)
      done

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f !acc u v);
  !acc

let edge_array g =
  let out = Array.make g.m (0, 0) in
  let k = ref 0 in
  iter_edges g (fun u v ->
      out.(!k) <- (u, v);
      incr k);
  out

(* ------------------------------------------------------------------ *)
(* Memory accounting (one word = 8 bytes).

   Flat reproduces the historical formula exactly: five flat int arrays
   with one header word each plus a 9-word record.  Mapped counts the
   mapped byte ranges (page-cache resident, not heap).  A forced dense
   view or a materialised label array on the mapped backend is extra
   resident memory and is included when present. *)

let side_bytes sd =
  let store =
    match sd.store with
    | Sflat { off; adj } -> 8 * (Array.length off + Array.length adj + 2)
    | Smapped { off; adj } ->
        8 * (Bigarray.Array1.dim off + Bigarray.Array1.dim adj)
  in
  let extra =
    match (sd.store, Atomic.get sd.dense) with
    | Sflat _, _ | _, None -> 0
    | _, Some (off, adj) -> 8 * (Array.length off + Array.length adj + 2)
  in
  store + extra

let labels_bytes g =
  let store =
    match g.lab.ls with
    | Lheap a -> 8 * (Array.length a + 1)
    | Lmapped ba -> 8 * Bigarray.Array1.dim ba
  in
  let extra =
    match (g.lab.ls, Atomic.get g.lab.dense_labels) with
    | Lheap _, _ | _, None -> 0
    | _, Some a -> 8 * (Array.length a + 1)
  in
  store + extra

let memory_bytes g = side_bytes g.fwd + side_bytes g.bwd + labels_bytes g + 72

(* ------------------------------------------------------------------ *)
(* Derived graphs *)

(* The in-CSR of [g] is exactly the out-CSR of the reversed graph, so
   reversing is just swapping the two direction records — no copying; the
   dense caches and scratch buffers travel with their side. *)
let reverse g = { g with fwd = g.bwd; bwd = g.fwd }

let with_labels g labels =
  if Array.length labels <> g.n then
    invalid_arg "Digraph.with_labels: length mismatch";
  let labels = Array.copy labels in
  {
    g with
    lab = { ls = Lheap labels; dense_labels = Atomic.make (Some labels) };
    label_count = compute_label_count labels;
  }

let append_edges g extra =
  (* Existing edges are already (src, dst)-sorted and deduplicated, so the
     counting sorts in [csr_of_edges] treat them as a stable prefix. *)
  let k = List.length extra in
  let src = Array.make (g.m + k) 0 and dst = Array.make (g.m + k) 0 in
  let i = ref 0 in
  iter_edges g (fun u v ->
      src.(!i) <- u;
      dst.(!i) <- v;
      incr i);
  List.iter
    (fun (u, v) ->
      src.(!i) <- u;
      dst.(!i) <- v;
      incr i)
    extra;
  of_columns ~n:g.n ~labels:(Array.copy (labels g)) src dst

let add_edges g es =
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= g.n || v < 0 || v >= g.n then
        invalid_arg "Digraph.add_edges: endpoint out of range")
    es;
  append_edges g es

let filter_rebuild g ~removed ~extra =
  let k = List.length extra in
  let src = Array.make (g.m + k) 0 and dst = Array.make (g.m + k) 0 in
  let i = ref 0 in
  iter_edges g (fun u v ->
      if not (Mono.Ptbl.mem removed (u, v)) then begin
        src.(!i) <- u;
        dst.(!i) <- v;
        incr i
      end);
  List.iter
    (fun (u, v) ->
      src.(!i) <- u;
      dst.(!i) <- v;
      incr i)
    extra;
  of_columns ~n:g.n ~labels:(Array.copy (labels g)) (Array.sub src 0 !i)
    (Array.sub dst 0 !i)

let remove_edges g es =
  let removed = Mono.Ptbl.create ((List.length es * 2) + 1) in
  List.iter (fun (u, v) -> Mono.Ptbl.replace removed (u, v) ()) es;
  filter_rebuild g ~removed ~extra:[]

let edit g ~add ~remove =
  let removed = Mono.Ptbl.create ((2 * List.length remove) + 1) in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= g.n || v < 0 || v >= g.n then
        invalid_arg "Digraph.edit: endpoint out of range";
      Mono.Ptbl.replace removed (u, v) ())
    remove;
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= g.n || v < 0 || v >= g.n then
        invalid_arg "Digraph.edit: endpoint out of range";
      Mono.Ptbl.remove removed (u, v))
    add;
  filter_rebuild g ~removed ~extra:add

let induced g nodes =
  let k = Array.length nodes in
  let old_to_new = Mono.Itbl.create ((2 * k) + 1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= g.n then invalid_arg "Digraph.induced: node out of range";
      if Mono.Itbl.mem old_to_new v then
        invalid_arg "Digraph.induced: duplicate node";
      Mono.Itbl.replace old_to_new v i)
    nodes;
  let sub_labels = Array.map (fun v -> label g v) nodes in
  (* Count, then fill: no intermediate boxing. *)
  let count = ref 0 in
  Array.iter
    (fun v ->
      iter_succ g v (fun w -> if Mono.Itbl.mem old_to_new w then incr count))
    nodes;
  let src = Array.make !count 0 and dst = Array.make !count 0 in
  let i = ref 0 in
  Array.iteri
    (fun ni v ->
      iter_succ g v (fun w ->
          match Mono.Itbl.find_opt old_to_new w with
          | Some nw ->
              src.(!i) <- ni;
              dst.(!i) <- nw;
              incr i
          | None -> ()))
    nodes;
  (of_columns ~n:k ~labels:sub_labels src dst, Array.copy nodes)

(* ------------------------------------------------------------------ *)
(* Backend conversions *)

let to_flat g =
  match (g.fwd.store, g.bwd.store, g.lab.ls) with
  | Sflat _, Sflat _, Lheap _ -> g
  | _ ->
      let out_off, out_adj = force_dense g.n g.fwd in
      let in_off, in_adj = force_dense g.n g.bwd in
      let labels = labels g in
      {
        n = g.n;
        m = g.m;
        label_count = g.label_count;
        lab = { ls = Lheap labels; dense_labels = Atomic.make (Some labels) };
        fwd = flat_side out_off out_adj;
        bwd = flat_side in_off in_adj;
      }

(* ------------------------------------------------------------------ *)
(* Comparison and printing *)

let succ_equal a b v =
  side_degree a.fwd v = side_degree b.fwd v
  &&
  (* Copy a's slice first; iterating b's side below touches no scratch,
     so the two cannot alias destructively even when [a == b]. *)
  let base, start, _ = side_slice a.fwd v in
  let i = ref start and ok = ref true in
  side_iter b.fwd v (fun w ->
      if !ok then begin
        if base.(!i) <> w then ok := false;
        incr i
      end);
  !ok

let equal a b =
  a.n = b.n && a.m = b.m
  && (let rec go v = v >= a.n || (label a v = label b v && go (v + 1)) in
      go 0)
  && (let rec go v = v >= a.n || (succ_equal a b v && go (v + 1)) in
      go 0)

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n g.m;
  for v = 0 to g.n - 1 do
    let succs = ref [] in
    iter_succ g v (fun w -> succs := w :: !succs);
    Format.fprintf ppf "  %d[l%d] -> %a@," v (label g v)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      (List.rev !succs)
  done;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Validation *)

let validate g =
  let fail fmt = Format.kasprintf failwith fmt in
  (match g.lab.ls with
  | Lheap a -> if Array.length a <> g.n then fail "labels length"
  | Lmapped ba -> if Bigarray.Array1.dim ba <> g.n then fail "labels length");
  let top = ref 0 in
  for v = 0 to g.n - 1 do
    let l = label g v in
    if l < 0 || l >= g.label_count then
      fail "label %d of node %d outside [0,%d)" l v g.label_count;
    if l > !top then top := l
  done;
  if g.label_count <> !top + 1 then
    fail "label count %d is not 1 + the largest label %d" g.label_count !top;
  let check_side name sd =
    (* Offset structural checks per store. *)
    (match sd.store with
    | Sflat { off; adj } ->
        if Array.length off <> g.n + 1 then fail "%s offsets length" name;
        if Array.length off > 0 && off.(0) <> 0 then
          fail "%s offsets do not start at 0" name;
        for v = 0 to g.n - 1 do
          if off.(v) > off.(v + 1) then
            fail "%s offsets not monotone at %d" name v
        done;
        if off.(g.n) <> Array.length adj then
          fail "%s offsets/adjacency mismatch" name;
        if Array.length adj <> g.m then fail "%s edge count" name
    | Smapped { off; adj } ->
        if Bigarray.Array1.dim off <> g.n + 1 then fail "%s offsets length" name;
        if off.{0} <> 0 then fail "%s offsets do not start at 0" name;
        for v = 0 to g.n - 1 do
          if off.{v} > off.{v + 1} then
            fail "%s offsets not monotone at %d" name v
        done;
        if off.{g.n} <> Bigarray.Array1.dim adj then
          fail "%s offsets/adjacency mismatch" name;
        if Bigarray.Array1.dim adj <> g.m then fail "%s edge count" name);
    (* Slice content checks, store-independent. *)
    for v = 0 to g.n - 1 do
      let prev = ref (-1) and first = ref true in
      side_iter sd v (fun w ->
          if w < 0 || w >= g.n then fail "%s(%d): out of range" name v;
          if (not !first) && !prev >= w then
            fail "%s(%d): slice not strictly sorted" name v;
          first := false;
          prev := w)
    done
  in
  check_side "succ" g.fwd;
  check_side "pred" g.bwd;
  iter_edges g (fun u v ->
      if not (side_mem g.bwd v u) then fail "missing mirror edge (%d,%d)" u v)
