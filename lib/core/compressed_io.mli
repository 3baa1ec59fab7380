(** Serialisation of compressed graphs with their node-map index: compress
    once, ship [Gr] + [R], query anywhere.

    Format, extending the {!Graph_io} records:
    {v
    n <hypernode-count>
    l <hypernode> <label-id>       # omitted when 0
    e <src> <dst>
    o <original-node-count>
    m <original-node> <hypernode>  # the map R, one line per node
    v} *)

exception Parse_error of int * string

val to_string : Compressed.t -> string

(** @raise Parse_error on malformed input (including maps that do not cover
    every original node or point at unknown hypernodes). *)
val of_string : string -> Compressed.t

(** {1 Binary snapshots}

    Magic ["QPGC"], kind ['C'], version byte, then [Gr] as an embedded
    {!Graph_io} snapshot blob ('G' flat or 'M' mapped — pick with
    [graph_format]), the original node count, and the
    node map [R] as int32 entries.  The blob sits at offset 8, which is
    8-byte aligned, so an 'M' blob can be mapped zero-copy straight out
    of the snapshot file.  The inverse index is rederived on load. *)

val to_binary_string : ?graph_format:Digraph.backend -> Compressed.t -> string

(** @raise Parse_error on a corrupt or truncated snapshot. *)
val of_binary_string : string -> Compressed.t

val save_binary : ?graph_format:Digraph.backend -> string -> Compressed.t -> unit

(** [save path c] writes the text format. *)
val save : string -> Compressed.t -> unit

(** [load ?mmap path] reads either format ({!Graph_io.sniff}); [Gr]
    goes through {!Graph_io.read_blob}.  With [~mmap:true] and a
    snapshot whose embedded blob is kind 'M', [Gr]'s sections open as
    zero-copy mapped views and only the header and the node map are
    read, so [Gr]'s adjacency never transits the heap; run
    {!Graph_io.check_mapped} on [Gr] before trusting it. *)
val load : ?mmap:bool -> string -> Compressed.t
