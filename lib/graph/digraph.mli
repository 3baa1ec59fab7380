(** Labeled directed graphs [G = (V, E, L)] (paper Sec 2.1).

    Nodes are dense integers [0 .. n-1]; each node carries an integer label
    drawn from [0 .. label_count-1] (string label names are handled by
    {!Graph_io.Label_table} at the I/O boundary, so the core algorithms stay
    allocation-free).  The structure is immutable once built.

    Storage is backend-polymorphic behind one accessor surface.  Logically
    every graph is a compressed-sparse-row structure — per-node successor
    slices, strictly sorted and deduplicated, mirrored for predecessors —
    physically held by one of two backends:

    - {b flat}: heap int arrays, one shared adjacency array indexed by an
      [n+1]-entry offset array per direction.  The default; what {!make}
      and the builders produce.
    - {b mmap}: the same arrays as [Bigarray] views over an mmap'd 'M'
      snapshot file.  Zero-copy and O(1) to open regardless of graph size;
      resident cost is page-cache, not heap.

    Adjacency is exposed as allocation-free iteration/folds and slice
    views — never as freshly materialised per-node arrays.  Algorithms
    that genuinely need indexed random access over raw arrays use the
    {!out_csr}/{!in_csr} dense-view escape hatch (lint rule CSR02 keeps
    that set explicit). *)

type t

(** Bigarray views used by the mmap backend. *)
type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** {1 Construction} *)

(** [make ~n ~labels edges] builds a graph with [n] nodes, the given labels
    (defaulting to all-0 when [labels] is omitted) and the given directed
    edges.  Duplicate edges are collapsed; self-loops are kept.
    @raise Invalid_argument on an out-of-range endpoint or label array of the
    wrong length. *)
val make : n:int -> ?labels:int array -> (int * int) list -> t

(** [make_arrays] is {!make} for preallocated edge arrays (no list boxing);
    used by generators producing millions of edges. *)
val make_arrays : n:int -> ?labels:int array -> (int * int) array -> t

(** [of_edge_arrays ~n ~labels src dst] is {!make} for the edges
    [(src.(i), dst.(i))] held as two int columns: no tuple is boxed, and
    the CSR comes out of two counting sorts in O(n + m).  The columns are
    read, not kept.
    @raise Invalid_argument as {!make}, or if the columns differ in
    length. *)
val of_edge_arrays : n:int -> ?labels:int array -> int array -> int array -> t

(** [empty] is the graph with no nodes and no edges. *)
val empty : t

(** [of_csr_unchecked ~n ~labels ~out_off ~out_adj] wraps an
    already-canonical out-CSR (offsets monotone from 0, slices strictly
    sorted and deduplicated) without re-sorting, deriving the in-mirror.
    Trusted constructor for the binary snapshot loader; the caller owns the
    canonicity proof ({!validate} re-checks it).  The arrays are taken over,
    not copied. *)
val of_csr_unchecked :
  n:int -> labels:int array -> out_off:int array -> out_adj:int array -> t

(** [of_mapped_unchecked] wraps Bigarray views over an mmap'd 'M' snapshot
    — both mirrors come from the file, so construction is O(1) in the
    graph size.  Trusted constructor for {!Graph_io}; the loader performs
    the O(1) structural checks and {!validate} the deep ones. *)
val of_mapped_unchecked :
  n:int ->
  m:int ->
  label_count:int ->
  labels:int_ba ->
  out_off:int_ba ->
  out_adj:int_ba ->
  in_off:int_ba ->
  in_adj:int_ba ->
  t

(** A mutable staging area for incremental construction. *)
module Builder : sig
  type graph := t
  type t

  (** [create ?expected_nodes ()] is an empty builder. *)
  val create : ?expected_nodes:int -> unit -> t

  (** [add_node b ~label] allocates the next node id and returns it. *)
  val add_node : t -> label:int -> int

  (** [add_edge b u v] records edge [(u, v)]; both endpoints must already
      exist. *)
  val add_edge : t -> int -> int -> unit

  (** [node_count b] is the number of nodes allocated so far. *)
  val node_count : t -> int

  (** [build b] freezes the builder into an immutable graph. *)
  val build : t -> graph
end

(** {1 Backends} *)

type backend = Flat | Mapped

(** [backend g] identifies the physical storage backing [g]. *)
val backend : t -> backend

(** [backend_name g] is ["flat"] or ["mmap"]; what
    [qpgc stats] and the storage bench report. *)
val backend_name : t -> string

(** [to_flat g] is [g] rematerialised on the heap-array backend ([g]
    itself when already flat).  O(n + m). *)
val to_flat : t -> t

(** {1 Accessors} *)

(** [n g] is the number of nodes [|V|]. *)
val n : t -> int

(** [m g] is the number of distinct edges [|E|]. *)
val m : t -> int

(** [size g] is [|V| + |E|], the paper's [|G|]. *)
val size : t -> int

(** [memory_bytes g] is the resident size of the storage backing [g]:
    heap words for the flat backend, mapped (page-cache) bytes for mmap
    — plus any dense view or label array that has been forced on the
    mapped backend.  Used for the
    Fig 12(d)-style memory comparisons and the bytes-per-edge figures in
    [qpgc stats] and the storage bench. *)
val memory_bytes : t -> int

(** [label g v] is [L(v)]. *)
val label : t -> int -> int

(** [labels g] is the label array (do not mutate).  On the mapped
    backend the array is materialised on first use and cached. *)
val labels : t -> int array

(** [label_count g] is [1 + max label] (at least 1 even for empty graphs). *)
val label_count : t -> int

val out_degree : t -> int -> int
val in_degree : t -> int -> int

(** [mem_edge g u v] is [true] iff [(u,v) ∈ E]; O(log out_degree(u)). *)
val mem_edge : t -> int -> int -> bool

(** {1 Adjacency views}

    The slice accessors return O(1)-ish views [(base, start, len)]: the
    neighbours of [v] are [base.(start) .. base.(start + len - 1)],
    strictly sorted.  On the flat backend [base] is the shared adjacency
    array.  On the mmap backend the slice is copied into a
    {e per-domain scratch buffer}: it stays valid only until the next
    [succ_slice] (resp. [pred_slice]) call on the same graph, same
    direction and same domain — copy it out if you need it longer.  Do
    not mutate [base], and do not read outside the slice. *)

val succ_slice : t -> int -> int array * int * int
val pred_slice : t -> int -> int array * int * int

(** [out_csr g] is the dense [(offsets, adjacency)] view of the out-CSR:
    [offsets] has [n+1] entries and the successors of [v] occupy
    [adjacency.(offsets.(v)) .. adjacency.(offsets.(v+1) - 1)].  On the
    flat backend these are the storage arrays themselves; on the mmap
    backend the first call materialises (and caches) heap copies —
    an O(n + m) escape hatch for kernels that need indexed random access.
    Fetch once per kernel.  Do not mutate.  New call sites outside
    [lib/graph] trip lint rule CSR02 and need a justified
    [[@lint.allow "CSR02"]]. *)
val out_csr : t -> int array * int array

(** [in_csr g] is the in-mirror of {!out_csr}. *)
val in_csr : t -> int array * int array

val iter_succ : t -> int -> (int -> unit) -> unit
val iter_pred : t -> int -> (int -> unit) -> unit
val fold_succ : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
val fold_pred : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

(** [iter_edges g f] applies [f u v] to every edge in lexicographic order. *)
val iter_edges : t -> (int -> int -> unit) -> unit

(** [fold_edges g f init] folds [f] over the edges in lexicographic order. *)
val fold_edges : t -> ('a -> int -> int -> 'a) -> 'a -> 'a

(** [edge_array g] materialises the edge list as a fresh array in
    lexicographic order — O(m) allocation, for shufflers and samplers that
    genuinely need random access to edges.  Prefer {!iter_edges} for plain
    iteration. *)
val edge_array : t -> (int * int) array

(** {1 Derived graphs} *)

(** [reverse g] flips every edge; labels are preserved.  O(1): the two
    direction records swap roles, no arrays are copied or re-encoded. *)
val reverse : t -> t

(** [with_labels g labels] is [g] with its label array replaced (heap
    labels, storage backend unchanged). *)
val with_labels : t -> int array -> t

(** [add_edges g es] is [g] plus the extra edges (endpoints must exist).
    Like all edit operations, the result is on the flat backend. *)
val add_edges : t -> (int * int) list -> t

(** [remove_edges g es] is [g] minus the given edges (absent edges are
    ignored). *)
val remove_edges : t -> (int * int) list -> t

(** [edit g ~add ~remove] applies both changes with a single CSR rebuild;
    an edge in both lists ends up present. *)
val edit : t -> add:(int * int) list -> remove:(int * int) list -> t

(** [induced g nodes] is the subgraph induced by [nodes]: result node [i]
    corresponds to [nodes.(i)].  Returns the subgraph and the mapping array
    from new ids to old ids. *)
val induced : t -> int array -> t * int array

(** {1 Comparison and printing} *)

(** [equal a b] is structural equality: same [n], labels and edge sets —
    independent of storage backend (a mapped graph equals its flat
    original). *)
val equal : t -> t -> bool

(** [pp] prints a compact textual form, for debugging and expect tests. *)
val pp : Format.formatter -> t -> unit

(** [validate g] re-checks the storage invariants of whichever backend
    [g] uses: offsets start at 0, are monotone and end at [m]; every
    slice is strictly sorted (hence deduplicated) and in range; labels
    lie in [0, label_count) and [label_count] is 1 + the largest label;
    the in- and out-mirrors agree edge for edge.  O(n + m log d).  Used
    by property tests, the eager snapshot parsers and
    {!Graph_io.check_mapped}.
    @raise Failure when an invariant is broken. *)
val validate : t -> unit
