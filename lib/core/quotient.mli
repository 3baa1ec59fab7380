(** The quotient graph of a node partition, shared by both compression
    schemes: one node per block, and an edge [(R(u), R(v))] for every edge
    [(u, v)] of the graph, each quotient edge once.

    compressR ({!Compress_reach}) builds it unlabelled and without the
    diagonal, the DAG it then transitively reduces; compressB
    ({!Compress_bisim}) builds it labelled and keeps the diagonal, whose
    self-loops are edges inside one bisimulation class. *)

(** [build ~labelled ~self_loops g ~count class_of] is the quotient of [g]
    by the partition [class_of] (node → block in [0, count)).  With
    [~labelled:true] each block takes the shared label of its members; with
    [~labelled:false] every block is labelled 0.  With [~self_loops:false]
    edges inside one block are dropped.  O(|V| + |E| + count), no hashing.
    @raise Invalid_argument if [class_of] has the wrong length or a block
    id outside [0, count), or if [~labelled:true] and some block holds
    members with different labels. *)
val build :
  labelled:bool ->
  self_loops:bool ->
  Digraph.t ->
  count:int ->
  int array ->
  Digraph.t
