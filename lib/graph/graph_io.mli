(** Text serialisation of labeled graphs.

    Format (one record per line, ['#'] starts a comment):
    {v
    n <node-count>
    l <node-id> <label-name>     # optional; default label is "_"
    e <src> <dst>
    v}
    Nodes are implicitly [0 .. n-1].  String label names are interned into the
    dense integer labels used by {!Digraph} via {!Label_table}. *)

(** Bidirectional mapping between string label names and dense label ids. *)
module Label_table : sig
  type t

  val create : unit -> t

  (** [intern t name] returns the id of [name], allocating one if new. *)
  val intern : t -> string -> int

  (** [name t id] is the interned string for [id].
      @raise Not_found on an unknown id. *)
  val name : t -> int -> string

  val count : t -> int
end

(** Raised by the parsers with a 1-based line number and message. *)
exception Parse_error of int * string

(** [of_string s] parses the format above, returning the graph and the label
    table.  @raise Parse_error on malformed input. *)
val of_string : string -> Digraph.t * Label_table.t

(** [to_string ?labels g] prints the format above.  When [labels] is given,
    label names come from it; otherwise labels print as [l<id>]. *)
val to_string : ?labels:Label_table.t -> Digraph.t -> string

(** {1 Binary snapshots}

    Versioned binary forms of the same data, magic ["QPGC"] + a kind byte:

    - ['G'] (flat): the canonical out-CSR (int64 offsets, int32 adjacency,
      int32 labels) and the label-name table.  Loading is three blob reads
      plus an O(n + m) in-mirror rebuild.
    - ['M'] (mapped): both mirrors as 8-byte-aligned int64 sections, built
      for zero-copy mmap — opening is O(1) in the graph size.

    Compressed ('C') and index ('I') snapshots nest one of these blobs;
    {!of_any_blob} and {!read_blob} are the only readers of a nested
    blob.  See DESIGN.md "Storage layer" for the byte layouts and
    alignment rules.  All parsers reject truncated or corrupt input with
    {!Parse_error}, never undefined behaviour. *)

(** [to_binary_string ?labels g] serialises [g] (and, when given, its
    label names) into the 'G' binary snapshot format. *)
val to_binary_string : ?labels:Label_table.t -> Digraph.t -> string

(** [to_snapshot_string ?labels ?format g] serialises [g] in the snapshot
    kind matching [format] (['G'] for [Flat], the default; ['M'] for
    [Mapped]).  Serialisation is canonical per kind: loading any accepted
    snapshot and re-serialising it in the same format is bit-identical,
    whatever backend the graph value uses in memory. *)
val to_snapshot_string :
  ?labels:Label_table.t -> ?format:Digraph.backend -> Digraph.t -> string

(** [of_binary_string s] parses a 'G' or 'M' snapshot onto the flat
    backend.  The loaded structure is re-validated, so corrupt or
    truncated input fails with {!Parse_error} (line 0) rather than
    undefined behaviour. *)
val of_binary_string : string -> Digraph.t * Label_table.t

(** [of_any_blob s pos] parses the graph blob ('G' or 'M') nested at
    [pos] of the snapshot bytes [s], skipping the zero padding that
    precedes an 'M' blob at an unaligned position, and returns the
    position one past the blob.  Every kind parses eagerly onto the flat
    backend and is fully validated. *)
val of_any_blob : string -> int -> (Digraph.t * Label_table.t) * int

(** [read_blob ?mmap path pos] is {!of_any_blob} for the blob at byte
    [pos] of the file [path]: top-level ([pos = 0]) and nested blobs
    alike.  With [~mmap:true] an 8-aligned 'M' blob opens zero-copy on
    the mapped backend: its int64 sections become [Bigarray] views over
    the file's pages and are never read, so the call is O(1) in the
    graph size (only the fixed header and the label-name table are
    parsed).  Any other blob is read from [pos] to the end of the file
    and parsed eagerly.  A mapped result has passed only the O(1)
    checks (bounds, section tiling, CSR endpoints): run {!check_mapped}
    before trusting it. *)
val read_blob :
  ?mmap:bool -> string -> int -> (Digraph.t * Label_table.t) * int

(** [add_any_blob buf ?labels ~format g] appends the snapshot kind
    matching [format].  An 'M' blob is preceded by zero padding up to the
    next multiple of 8 of [Buffer.length buf], so its int64 sections land
    8-byte aligned when the buffer is written at file offset 0;
    {!of_any_blob} and {!read_blob} skip the same padding. *)
val add_any_blob :
  Buffer.t -> ?labels:Label_table.t -> format:Digraph.backend -> Digraph.t -> unit

(** [check_mapped g] runs [Digraph.validate] on a graph that opened on
    the mapped backend (and does nothing on the flat backend, whose
    parsers validate on load): O(n + m log d), once per opened file, so
    a corrupt mapped snapshot fails closed before it is queried.
    @raise Parse_error when an invariant is broken. *)
val check_mapped : Digraph.t -> unit

(** [save_binary ?labels ?format path g] writes the binary snapshot of
    [g]; [format] as in {!to_snapshot_string}. *)
val save_binary :
  ?labels:Label_table.t -> ?format:Digraph.backend -> string -> Digraph.t -> unit

(** [sniff path] is the kind byte of the binary snapshot in [path]
    (['G'], ['M'], ['C'] or ['I'], unchecked), or [None] when the file
    does not start with the snapshot magic — a text file.  Every loader
    that accepts more than one format dispatches on it. *)
val sniff : string -> char option

(** [load ?mmap path] reads a graph file in any format: a binary
    snapshot ({!sniff}) through {!read_blob} at offset 0, anything else
    as text.  With [~mmap:true], an 'M' snapshot opens zero-copy on the
    mapped backend in O(1); a 'G' snapshot still loads eagerly. *)
val load : ?mmap:bool -> string -> Digraph.t * Label_table.t

(** [save ?labels path g] writes [g] to [path] in the text format. *)
val save : ?labels:Label_table.t -> string -> Digraph.t -> unit

(** [to_dot ?labels ?name ?cluster g] renders Graphviz DOT.  Nodes show
    their id and label; when [cluster] is given, nodes are grouped into
    subgraph clusters by [cluster.(v)] (e.g. hypernode or fragment id) —
    the natural way to look at a compression or a fragmentation. *)
val to_dot :
  ?labels:Label_table.t -> ?name:string -> ?cluster:int array -> Digraph.t -> string
