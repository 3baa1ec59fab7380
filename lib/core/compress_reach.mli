(** Reachability preserving compression (paper Sec 3, Theorem 2).

    [compress] is the compression function [R]: hypernodes are the classes
    of the reachability equivalence relation [Re]; hypernode labels are a
    fixed symbol (labels are irrelevant to reachability); edges connect
    classes with a member edge, except edges redundant for reachability
    (Fig 5 lines 6-8) — the class-level quotient is a DAG up to self-loops,
    so "no redundant edges" is its unique transitive reduction.  A hypernode
    carries a self-loop iff its class is cyclic, which preserves queries
    between distinct nodes of one class.

    The query rewriting function [F] maps [QR(v,w)] to [QR(R(v), R(w))] in
    O(1); no post-processing is needed (Fig 3(b)). *)

(** [compress g] computes [Gr = R(G)].  O(|V|·|E|/w + |Eq|·|Vr|/w), [Eq]
    the class-level quotient's edges: equivalence at SCC-condensation
    granularity with bitset ancestor/descendant sets — an optimised
    implementation of the paper's algorithm — then the quotient
    ({!Quotient.build}) and its transitive reduction
    ({!Transitive.reduction_dag}).  [?pool] parallelises the reduction
    (default: {!Pool.default}). *)
val compress : ?pool:Pool.t -> Digraph.t -> Compressed.t

(** [compress_paper g] is algorithm [compressR] exactly as the paper states
    it (Fig 5): a forward and a backward BFS {e per node} to collect its
    descendant and ancestor sets, grouping nodes on those sets, then the
    redundant-edge-free quotient.  O(|V|·(|V|+|E|)), the paper's quadratic
    bound.  Same output as {!compress}; kept as the faithful baseline for
    Figs 12(e)/(f) and as a test oracle.

    With a multi-domain [?pool] the per-node traversals fan out over the
    pool; the grouping stage stays sequential over precomputed per-node
    sets, so the result — including class numbering — is identical for
    every domain count. *)
val compress_paper : ?pool:Pool.t -> Digraph.t -> Compressed.t

(** [compress_of_equiv g re] builds [Gr] from an already-computed
    equivalence relation (shared with the incremental layer): the quotient
    without its diagonal, transitively reduced, plus a self-loop on each
    cyclic class. *)
val compress_of_equiv : ?pool:Pool.t -> Digraph.t -> Reach_equiv.t -> Compressed.t

(** [rewrite c ~source ~target] is [F(QR(source,target))]: the pair of
    hypernodes to query on [Compressed.graph c]. *)
val rewrite : Compressed.t -> source:int -> target:int -> int * int

(** [index ?pool ?algorithm c] builds a {!Reach_index.t} over [Gr] that
    answers original-graph queries through the node map: the
    compress-then-index pipeline.  [Gr] being small makes even the
    heavier indexes cheap, and the index replaces {!answer}'s per-query
    BFS with an O(log)/O(label) probe while returning exactly the same
    bits. *)
val index :
  ?pool:Pool.t ->
  ?algorithm:Reach_index.algorithm ->
  Compressed.t ->
  Reach_index.t

(** [answer ?algorithm c ~source ~target] evaluates the rewritten query on
    [Gr] with a stock evaluator (default {!Reach_query.Bfs}) and returns
    [QR(source, target)] on the original graph: reflexively [true] when
    [source = target], otherwise nonempty-path reachability between the
    hypernodes (handled entirely inside [Gr]; same-hypernode queries resolve
    through the class self-loop). *)
val answer :
  ?algorithm:Reach_query.algorithm ->
  Compressed.t ->
  source:int ->
  target:int ->
  bool

(** [answer_batch c pairs] answers [QR(u, v)] for every [(u, v)] of
    [pairs], preserving order.  Queries are independent, so a multi-domain
    [?pool] evaluates them concurrently — the Exp-2 workload path. *)
val answer_batch :
  ?pool:Pool.t ->
  ?algorithm:Reach_query.algorithm ->
  Compressed.t ->
  (int * int) array ->
  bool array
